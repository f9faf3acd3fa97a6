"""The dict-accumulating frame move that ``biquadric.bipoly.moved_terms``'s
symmetric-power matrix product replaced, kept as the reference that the
product is compared against.

``linear_image`` expands the image of one monomial under v_k -> sum_i
g[i][k] v_i by repeated multiplication with linear forms; ``moved_terms``
moves each x-part's y-form once, from memoized y-monomial images, into its
x-monomial's image, adding every product into one dict; ``moved_form`` is
the same move of a polynomial in three variables, monomial by monomial.
"""

from biquadric.bipoly import AffinePoly


def linear_image(g, exps) -> dict:
    """Terms of the product over k of (sum_i g[i][k] v_i) ** exps[k]."""
    out = {(0,) * len(g): 1}
    for k, e in enumerate(exps):
        column = [(i, g[i][k]) for i in range(len(g)) if g[i][k]]
        for _ in range(e):
            nxt: dict = {}
            for m, c in out.items():
                for i, gik in column:
                    key = m[:i] + (m[i] + 1,) + m[i + 1 :]
                    nxt[key] = nxt.get(key, 0) + c * gik
            out = nxt
    return out


def moved_terms(g2, g3, terms) -> dict:
    """The terms of f(x * g2, y * g3), accumulated monomial by monomial."""
    y_forms: dict = {}
    for m, c in terms.items():
        y_forms.setdefault(m[:2], []).append((m[2:], c))
    y_images: dict = {}
    out: dict = {}
    for xa, y_form in y_forms.items():
        moved_y: dict = {}
        for yb, c in y_form:
            if yb not in y_images:
                y_images[yb] = linear_image(g3, yb)
            for ye, v in y_images[yb].items():
                moved_y[ye] = moved_y.get(ye, 0) + c * v
        for xe, u in linear_image(g2, xa).items():
            for ye, v in moved_y.items():
                key = xe + ye
                out[key] = out.get(key, 0) + u * v
    return {m: c for m, c in out.items() if c}


def moved_form(g, poly: AffinePoly) -> AffinePoly:
    """poly(v * g) for a polynomial in three variables, monomial by monomial."""
    terms: dict = {}
    for e, c in poly.terms.items():
        for m, x in linear_image(g, e).items():
            terms[m] = terms.get(m, 0) + c * x
    return AffinePoly(poly.vars, terms)
