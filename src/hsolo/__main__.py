import sys

from .cli import main

if __name__ == "__main__":  # worker processes import the main module under spawn and forkserver
    sys.exit(main())
