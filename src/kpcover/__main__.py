"""Run the command-line front end as ``python -m kpcover``."""

from .cli import entry

entry()
