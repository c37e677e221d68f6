"""``python -m repro`` entry point."""

import os
import sys

from repro.cli import main

if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # a reader that left (`| head`) raises here
    except BrokenPipeError:  # the Python docs' SIGPIPE recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
