#!/usr/bin/env python3
"""Count code lines in the library source.

    python3 tools/src_lines.py            # total over src/**/*.{h,cpp,inc}
    python3 tools/src_lines.py FILE...    # per file, then the total
    python3 tools/src_lines.py --help     # this text

A code line is a line that is neither blank nor a `//` comment once its
leading whitespace is stripped (the same as
`grep -cvE '^\\s*(//.*)?$'`).  Run from anywhere; the default set is the
`src` tree next to this script's directory.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NOT_CODE = re.compile(r"^\s*(//.*)?$")


def code_lines(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if not NOT_CODE.match(line.rstrip("\n")))


def main(argv):
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0
    if argv:
        paths = [pathlib.Path(a) for a in argv]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            print(f"src_lines.py: no such file: {', '.join(missing)}", file=sys.stderr)
            return 2
        total = 0
        for path in paths:
            n = code_lines(path)
            total += n
            print(f"{n:7d} {path}")
        print(f"{total:7d} total")
        return 0
    paths = sorted(p for ext in ("h", "cpp", "inc") for p in (ROOT / "src").rglob(f"*.{ext}"))
    print(sum(code_lines(p) for p in paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
