"""A document read as the program read it before it took the bytes in one
unbuffered read: a text-mode ``open``, whose universal newlines translate
line endings while it decodes.  ``load_matrix`` stands in for
``cli._load_matrix``; every command must give the same exit code, stdout
and stderr with either.
"""

import sys

from rigidpow import cli


def load_matrix(args):
    if args.document == "-":
        text = sys.stdin.read()
    else:
        with open(args.document, encoding="utf-8") as handle:
            text = handle.read()
    return cli.parse_matrix_json(text) if args.json else cli.parse_matrix_text(text)
