"""`python -m wsc`: the `wsc` command line."""

from .frontend import main

if __name__ == "__main__":
    main()
