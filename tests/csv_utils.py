"""Helpers for parsing the CSV files the CLI emits."""


def parse_csv(text):
    """Split an emitted CSV into (header_dict, column_names, rows_of_strings)."""
    lines = [line for line in text.split("\n") if line]
    header = {}
    data = []
    for line in lines:
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            header[key] = value
        elif not line.startswith("#"):
            data.append(line)
    columns = data[0].split(",")
    rows = [line.split(",") for line in data[1:]]
    return header, columns, rows


def rows_as_floats(columns, rows, *names):
    idx = [columns.index(name) for name in names]
    return [[float(row[i]) for i in idx] for row in rows]
