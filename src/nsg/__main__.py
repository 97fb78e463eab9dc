"""python -m nsg: the same command line as the installed nsg script."""

from .cli import main

if __name__ == "__main__":
    main()
