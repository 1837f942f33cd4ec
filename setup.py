"""Package metadata for ``repro``, the TopRR reproduction.

The source lives under ``src/`` and ``setup.py`` is the only build file.
With ``setuptools`` and ``wheel`` already installed, an editable install
needs no network::

    pip install --no-build-isolation --no-deps -e .

(without ``wheel``, ``python setup.py develop --no-deps`` does the same).  It
installs the ``toprr`` console script (``repro.cli:main``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "version.py"
VERSION = re.search(r'__version__ = "([^"]+)"', VERSION_FILE.read_text()).group(1)

setup(
    name="repro",
    version=VERSION,
    description="TopRR: creating top ranking options in the continuous option and preference space",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy>=2.0", "scipy"],
    entry_points={"console_scripts": ["toprr=repro.cli:main"]},
)
