"""Float rows as CSV text: the one formatter of ``verifier.write_float_csv``.

This module imports nothing but the standard library, so that it can also
run as a helper process, ``python -I -S csvrows.py NCOLS``.  The helper
reads a share of a table from stdin as raw native float64 bytes, column
after column, each column holding the same number of rows, and writes
those rows to stdout through ``write_rows``: the same text the calling
process would write for them.
"""

import sys

# Rows formatted per write: one chunk's text, and the floats and strs made
# for it, are in memory, never the whole share.  For 11 columns of 1e5 rows
# that stays under the peak RSS of `verify`'s pair math at 2048 rows; at
# 4096 rows the CSV set the peak, about 1 MB higher.
CHUNK_ROWS = 2048


def write_rows(write, chunk, lo: int, hi: int) -> None:
    """Rows lo..hi of a table as CSV lines, passed to ``write`` as bytes.

    ``chunk(i, j)`` gives rows i:j of each column, each with ``tolist()``
    giving Python floats: a float64 numpy array, or a memoryview cast to
    "d".  It is called once per CHUNK_ROWS rows, so a caller can compute
    its columns one chunk at a time.  A row is the repr of each of its
    floats, with "," between fields and "\\r\\n" after it; the text is
    formatted a column at a time, one chunk per write.
    """
    for i in range(lo, hi, CHUNK_ROWS):
        j = min(i + CHUNK_ROWS, hi)
        text = [map(repr, c.tolist()) for c in chunk(i, j)]
        write("".join([",".join(row) + "\r\n" for row in zip(*text)]).encode("ascii"))


def _main(argv: list[str]) -> int:
    ncols = int(argv[1])
    data = memoryview(sys.stdin.buffer.read()).cast("d")
    rows = len(data) // ncols
    if rows * ncols != len(data):
        return 1
    cols = [data[k * rows:(k + 1) * rows] for k in range(ncols)]
    write_rows(sys.stdout.buffer.write, lambda i, j: [c[i:j] for c in cols], 0, rows)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv))
