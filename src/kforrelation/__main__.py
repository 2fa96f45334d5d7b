"""Run the command-line interface as ``python -m kforrelation``."""
import sys

from .cli import main

sys.exit(main())
