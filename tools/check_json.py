"""Checks Python expressions over one JSON or JSONL file.

    check_json.py FILE EXPR...

The parsed file is bound to `d` (a list of the rows for a .jsonl file).
Every EXPR must evaluate true; the script prints each one that does not and
exits 1, or exits 0 when all hold.
"""
import json
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    path, exprs = argv[1], argv[2:]
    with open(path) as f:
        d = [json.loads(line) for line in f] if path.endswith(".jsonl") else json.load(f)
    failed = [e for e in exprs if not eval(e, {"d": d})]
    for e in failed:
        print(f"{path}: false: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
