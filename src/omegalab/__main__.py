"""python -m omegalab: the same command line as the omegalab script."""

from .cli import main

if __name__ == "__main__":
    main()
