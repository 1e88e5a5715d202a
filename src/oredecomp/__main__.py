"""Entry point for ``python -m oredecomp``."""

from .cli import main

main()
