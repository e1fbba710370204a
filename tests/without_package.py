"""The environment of a child Python process in which one package cannot be imported."""

import os
import sys


def env_without(package, directory):
    """os.environ with PYTHONPATH led by directory, which gets a package of that name whose
    import raises ImportError, then this process's sys.path, which finds this checkout's src."""
    (directory / package).mkdir()
    (directory / package / "__init__.py").write_text(f"raise ImportError('no {package} here')\n",
                                                     encoding="utf-8")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(directory), *sys.path])}
