"""Command line entry point: ``python3 -m schubert3``."""

from .cli import main

if __name__ == "__main__":
    main()
