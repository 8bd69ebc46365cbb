"""Prediction and recommendation on trained factors (Eq. 1).

The top-N paths are thin compatibility wrappers over the tiled serving
engine (:mod:`repro.serving.engine`): scoring runs in byte-budgeted item
tiles with vectorized CSR exclusion instead of a dense ``(U, n)`` score
matrix and a per-user Python masking loop.

Short-candidate contract (unified across both top-N entry points):
``n_items`` is clamped to the catalog size, and a user with fewer than
``n_items`` recommendable (unseen) items is *not* an error —

* :func:`recommend_top_n` returns a **truncated** list holding only the
  recommendable items;
* :func:`recommend_top_n_batch` returns fixed-width rows **padded** with
  :data:`repro.serving.PAD_ITEM` (``-1``) past each user's last
  recommendable item.

Rows are ordered by ``(score desc, item id asc)`` — a total order, so
results are deterministic under exact score ties.
"""

from __future__ import annotations

import numpy as np

from repro.core.als import FactorModel
from repro.serving.engine import TopNEngine
from repro.sparse.csr import CSRMatrix

__all__ = ["predict_rating", "predict_entries", "recommend_top_n", "recommend_top_n_batch"]


def _validate_indices(idx: np.ndarray, size: int, kind: str) -> None:
    """Reject out-of-range indices instead of letting numpy wrap them.

    Negative indices would silently select from the *end* of the factor
    matrix — in particular the ``-1`` rows :data:`repro.serving.PAD_ITEM`
    padding produces would score the last item instead of erroring.
    """
    if idx.size == 0:
        return
    if not np.issubdtype(idx.dtype, np.integer):
        raise IndexError(f"{kind} indices must be integers, got dtype {idx.dtype}")
    lo, hi = int(idx.min()), int(idx.max())
    if lo < 0 or hi >= size:
        bad = lo if lo < 0 else hi
        hint = (
            " (-1 is the PAD_ITEM padding recommend_top_n_batch uses for "
            "short rows; filter padded entries before predicting)"
            if bad == -1
            else ""
        )
        raise IndexError(f"{kind} index {bad} out of range for {size} {kind}s{hint}")


def predict_rating(model: FactorModel, user: int, item: int) -> float:
    """``r_ui = x_u · y_i`` (Eq. 1)."""
    m, n = model.shape
    if not 0 <= user < m:
        raise IndexError(f"user {user} out of range for {m} users")
    if not 0 <= item < n:
        raise IndexError(f"item {item} out of range for {n} items")
    return float(model.X[user] @ model.Y[item])


def predict_entries(
    model: FactorModel, users: np.ndarray, items: np.ndarray
) -> np.ndarray:
    """Vectorized predictions for parallel (user, item) arrays.

    Works on any model exposing ``(X, Y)`` factors (a
    :class:`FactorModel` of any algorithm).
    Out-of-range indices — including the negative ones numpy would
    silently wrap — raise :class:`IndexError`.
    """
    users = np.asarray(users)
    items = np.asarray(items)
    if users.shape != items.shape:
        raise ValueError("users and items must have the same shape")
    _validate_indices(users, model.X.shape[0], "user")
    _validate_indices(items, model.Y.shape[0], "item")
    return np.einsum("ij,ij->i", model.X[users], model.Y[items])


def recommend_top_n(
    model: FactorModel,
    user: int,
    n_items: int = 10,
    exclude: CSRMatrix | None = None,
    engine: TopNEngine | None = None,
) -> list[tuple[int, float]]:
    """The user's top-N unseen items by predicted rating.

    ``exclude`` is typically the training matrix: items the user already
    rated are never recommended back.  Returns at most ``n_items``
    ``(item, score)`` pairs, truncated when the user has fewer
    recommendable items (see the module contract).
    """
    m, _ = model.shape
    if not 0 <= user < m:
        raise IndexError(f"user {user} out of range for {m} users")
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if engine is None:
        engine = TopNEngine.from_model(model)
    result = engine.query(np.array([user]), n=n_items, exclude=exclude)
    return result.row(0)


def recommend_top_n_batch(
    model: FactorModel,
    users: np.ndarray,
    n_items: int = 10,
    exclude: CSRMatrix | None = None,
    engine: TopNEngine | None = None,
) -> np.ndarray:
    """Top-N item ids for many users at once (tiled scoring).

    Returns a ``(len(users), min(n_items, catalog))`` int array, each
    row sorted by descending predicted rating with ties broken by item
    id; a user with fewer recommendable items than the row width gets
    ``-1`` padding past the last one (see the module contract).
    """
    users = np.asarray(users)
    if users.ndim != 1:
        raise ValueError("users must be a 1-D index array")
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if engine is None:
        engine = TopNEngine.from_model(model)
    return engine.query(users, n=n_items, exclude=exclude).items
