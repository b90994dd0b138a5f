"""The overflow rule lives in one place.

``spectral._refusing_overflow`` silences numpy's overflow warnings, checks
the result and names the kernel that overflowed.  A kernel that silences
``over`` itself would bypass that check, so ``np.errstate(..., over=...)``
and ``np.errstate(..., all=...)`` may appear only in the helper, in
``spectral._finite_symbol`` (which tests a multiplier for finiteness) and in
``evolve._advance`` (whose blow-up guard checks the state after every step),
and ``np.seterr`` nowhere.
"""

import ast
import pathlib

import bosp

PACKAGE = pathlib.Path(bosp.__file__).resolve().parent


def _silences_overflow(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "attr", getattr(node.func, "id", None))
    return name == "seterr" or (name == "errstate"
                                and any(kw.arg in ("over", "all") for kw in node.keywords))


def _overflow_silencing_sites(path):
    """``module.name`` of each top-level definition of ``path`` that silences overflow,
    once per ``errstate`` or ``seterr`` call; ``module.<module>`` for a call outside any."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.stem}.{getattr(top, 'name', '<module>')}" for top in tree.body
            for node in ast.walk(top) if _silences_overflow(node)]


def test_overflow_is_silenced_only_by_the_rule_and_its_two_exceptions():
    sites = sorted(site for path in sorted(PACKAGE.glob("*.py"))
                   for site in _overflow_silencing_sites(path))
    assert sites == ["evolve._advance", "spectral._finite_symbol", "spectral._refusing_overflow"]
