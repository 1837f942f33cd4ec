"""Package version; ``setup.py`` reads it from here."""

__version__ = "1.0.0"
