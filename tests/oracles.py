"""Removed implementations kept once, as oracles for the code that
replaced them."""


def rref(rows, ncols=None):
    """The earlier ``intlinalg.rref`` verbatim: dense Gauss-Jordan over an
    exact field, kept as the oracle of the sparse elimination and of the
    singular test."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots
