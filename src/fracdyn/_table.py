"""The package's one CSV writer, and the table of a complex series."""

import numpy as np


def write_csv(path, columns, rows, comments=()) -> None:
    r"""Write each of ``comments`` as a ``# `` line, the column names and
    ``rows``, in the bytes of ``csv.writer(fh, lineterminator="\n")``.

    ``rows`` is a float table, as an (n, len(columns)) ndarray, or a sequence
    of rows.  Every cell is written as ``str(cell)``: a float as its repr
    (the shortest text that parses back to the same double), an int as its
    digits, a str verbatim; NumPy scalars print the same way.  A table is
    formatted a column at a time: a column whose bits equal an earlier
    column's takes that column's text (re rho_ji is re rho_ij in a Hermitian
    trajectory, |u| is re u at epsilon = 0), and one whose cells share one
    bit pattern is formatted once (im rho_ii is 0.0); bits keep 0.0 and
    -0.0 apart.  The cells are numbers or ``''``, which CSV quotes only in a
    row that is one empty cell, so the rows are joined as they are.
    """
    if isinstance(rows, np.ndarray):
        table = np.ascontiguousarray(rows.T, dtype=np.float64)
        seen, cells = {}, []
        for col, bits in zip(table, table.view(np.uint64)):
            key = bits.tobytes()
            if key not in seen:
                seen[key] = ([repr(col[0].item())] * col.size
                             if col.size and (bits == bits[0]).all()
                             else list(map(repr, col.tolist())))
            cells.append(seen[key])
        rows = zip(*cells)
    else:
        rows = (map(str, row) for row in rows)
    lines = map(",".join, rows)
    if len(columns) == 1:
        lines = (line or '""' for line in lines)
    body = "\n".join(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        if body:
            fh.write(body)
            fh.write("\n")


def series_table(times: np.ndarray, values: np.ndarray):
    """Columns ``t,re_u,im_u,abs_u`` and float table of the complex series
    u(t_k); np.hypot gives |u| with the bits of Python's abs(complex)."""
    re, im = values.real, values.imag
    return (["t", "re_u", "im_u", "abs_u"],
            np.column_stack((times, re, im, np.hypot(re, im))))
