"""`python -m gcmr`: the gcmr command, runnable from a source checkout
without an install (with the checkout's src/ on PYTHONPATH)."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
