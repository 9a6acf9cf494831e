"""Occlusion-aware completion decoder over a small differentiable encoder.

The encoder stands in for a full point-cloud backbone at desk scale: a
shared per-point MLP, a per-object max-pool broadcast back and mixed into
each point's feature (minimal context mixing), plus a projection head for
the contrastive branch. The decoder predicts per-point coordinate/feature
offsets to form a coarse completion, then folds a small 2D grid around each
coarse point to upsample it u*u-fold.

Everything runs on the autodiff tape, so `forward_backward` returns every
loss term together with the analytic gradient of the training objective
l_overall for all encoder and head parameters, from one reverse sweep.
`gradient_check` verifies that gradient, and the per-term gradients of
l_obj, l_pts and l_rec, against central finite differences.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .correspondence import (MatchSet, SeedSet, farthest_point_sample,
                             match_fps_pools, sample_seed_set)
from .errors import (CorruptManifest, DimensionMismatch, EmptyBatch,
                     TooFewPoints)
from .losses import (LAMBDA_PTS, LAMBDA_REC, LOSS_TERMS, TAU, LossReport,
                     object_level_graph, point_level_graph)
from .occlusion import occlude_pair
from .scenegen import ScenePair, SceneInstance
from .seeding import (STREAM_SEEDS_A, STREAM_SEEDS_B, STREAM_TARGETS_A,
                      STREAM_TARGETS_B, mix64)


def _mlp_params(widths: dict[str, list[int]], what: str, rng_seed: int,
                params: dict[str, np.ndarray] | None
                ) -> dict[str, np.ndarray]:
    """The parameters of the MLPs that ``widths`` lists as {prefix: widths}.

    ``params``, when given, must hold exactly the "<prefix>_w<i>" and
    "<prefix>_b<i>" tensors of those widths. Otherwise each layer's weight,
    then bias, is drawn in table order from U(-1/sqrt(fan_in),
    1/sqrt(fan_in)).
    """
    shapes = {}   # name -> (init bound, shape)
    for prefix, sizes in widths.items():
        for i, (fin, fout) in enumerate(zip(sizes[:-1], sizes[1:]), start=1):
            bound = 1.0 / np.sqrt(fin)
            shapes[f"{prefix}_w{i}"] = (bound, (fin, fout))
            shapes[f"{prefix}_b{i}"] = (bound, (fout,))
    if params is None:
        rng = np.random.Generator(np.random.PCG64(rng_seed))
        return {k: rng.uniform(-bound, bound, size=shape)
                for k, (bound, shape) in shapes.items()}
    params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    if set(params) != set(shapes):
        raise DimensionMismatch(
            f"{what} parameter names {sorted(params)} != {sorted(shapes)}")
    for k, (_, shape) in shapes.items():
        if params[k].shape != shape:
            raise DimensionMismatch(
                f"{k}: shape {params[k].shape}, expected {shape}")
    return params


def _mlp_layers(params: dict[str, ad.Var], prefix: str,
                n_layers: int) -> list[tuple[ad.Var, ad.Var]]:
    return [(params[f"{prefix}_w{i}"], params[f"{prefix}_b{i}"])
            for i in range(1, n_layers + 1)]


@dataclass(frozen=True)
class EncoderConfig:
    point_dim: int = 3
    hidden: int = 64
    feature_dim: int = 32     # s; 256 matches the full-scale setting
    proj_hidden: int = 64
    embed_dim: int = 128      # d, contrastive embedding width


class ToyEncoder:
    """Per-point MLP with per-object max-pool context and a projection head.

    Point path: point_dim -> hidden -> feature_dim with ReLU after each
    layer; the per-object max of those features is broadcast back, the
    concatenation is mixed by one linear layer down to feature_dim, and the
    result is the per-point feature z. The projection head maps z through
    one hidden ReLU layer to the contrastive embedding.
    """

    def __init__(self, config: EncoderConfig = EncoderConfig(),
                 rng_seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        self.config = c = config
        self.params = _mlp_params(
            {"point": [c.point_dim, c.hidden, c.feature_dim],
             "mix": [2 * c.feature_dim, c.feature_dim],
             "proj": [c.feature_dim, c.proj_hidden, c.embed_dim]},
            "encoder", rng_seed, params)

    @classmethod
    def zeros(cls, config: EncoderConfig = EncoderConfig()) -> "ToyEncoder":
        enc = cls(config, rng_seed=0)
        enc.params = {k: np.zeros_like(v) for k, v in enc.params.items()}
        return enc

    def encode_graph(self, params: dict[str, ad.Var], coords: ad.Var,
                     object_ids: np.ndarray, n_objects: int) -> ad.Var:
        h = coords
        for w, b in _mlp_layers(params, "point", 2):
            h = ad.relu(ad.linear(h, w, b))
        pooled = ad.segment_max(h, object_ids, n_objects)
        context = ad.gather_rows(pooled, object_ids)
        mixed = ad.concat_cols([h, context])
        return ad.linear(mixed, params["mix_w1"], params["mix_b1"])

    def project_graph(self, params: dict[str, ad.Var], z: ad.Var) -> ad.Var:
        return ad.mlp(z, _mlp_layers(params, "proj", 2))


@dataclass(frozen=True)
class HeadsConfig:
    feature_dim: int = EncoderConfig.feature_dim
    hidden: int = 64
    u: int = 3
    grid_extent: float = 0.05


def make_grid(u: int, extent: float) -> np.ndarray:
    """u*u fold-grid coordinates in [-extent, extent]^2, row j = a*u + b."""
    if u < 1:
        raise ValueError("u must be >= 1")
    axis = np.linspace(-extent, extent, u) if u > 1 else np.zeros(1)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


class DecoderHeads:
    """Offset head (3+s -> 3+s) and folding head (2+3+s -> 3)."""

    def __init__(self, config: HeadsConfig = HeadsConfig(),
                 rng_seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        self.config = config
        s, hid = config.feature_dim, config.hidden
        self.params = _mlp_params({"offset": [3 + s, hid, 3 + s],
                                   "fold": [2 + 3 + s, hid, 3]},
                                  "head", rng_seed, params)
        self.grid = make_grid(config.u, config.grid_extent)

    @classmethod
    def zeros(cls, config: HeadsConfig = HeadsConfig()) -> "DecoderHeads":
        heads = cls(config, rng_seed=0)
        heads.params = {k: np.zeros_like(v) for k, v in heads.params.items()}
        return heads


@dataclass(frozen=True)
class ReconstructionOutput:
    y_coarse: np.ndarray    # (n, 3)
    h_coarse: np.ndarray    # (n, 3+s)
    y_detail: np.ndarray    # (u*u*n, 3)


def decode_graph(params: dict[str, ad.Var], coords: ad.Var, z: ad.Var,
                 grid: np.ndarray) -> tuple[ad.Var, ad.Var, ad.Var]:
    """Tape version of the decoder; returns (y_coarse, h_coarse, y_detail).

    Row i*u*u + j of y_detail is y_coarse[i] plus the fold MLP applied to
    [grid[j], h_coarse[i]]. The fold's first layer is linear in that
    concatenation, so its pre-activation is computed factorised: with W_s
    the first 2 rows of fold_w1 and W_h the rest,
    tile(grid) @ W_s + repeat(h_coarse @ W_h + fold_b1, u*u). The wide
    product h_coarse @ W_h then runs over n rows instead of u*u*n, and so
    do both of its backward products and the bias. The grid term, the ReLU
    and the second product run as one ``ad.fold`` node, so the tape holds
    no (u*u*n, hidden) array but that node's hidden layer.
    """
    u2 = grid.shape[0]
    delta = ad.mlp(ad.concat_cols([coords, z]),
                   _mlp_layers(params, "offset", 2))
    y_coarse = ad.add(coords, ad.slice_cols(delta, 0, 3))
    feat = ad.add(z, ad.slice_cols(delta, 3, delta.data.shape[1]))
    h_coarse = ad.concat_cols([y_coarse, feat])
    w1 = params["fold_w1"]
    w_s = ad.slice_rows(w1, 0, 2)
    w_h = ad.slice_rows(w1, 2, w1.data.shape[0])
    feat_term = ad.linear(h_coarse, w_h, params["fold_b1"])
    fold = ad.add(ad.fold(grid, w_s, feat_term, params["fold_w2"]),
                  params["fold_b2"])
    y_detail = ad.add(ad.repeat_rows(y_coarse, u2), fold)
    return y_coarse, h_coarse, y_detail


def decode(seed_coords: np.ndarray, seed_features: np.ndarray,
           heads: DecoderHeads) -> ReconstructionOutput:
    """Coarse offsets plus grid folding; |y_detail| = u*u*n exactly.

    Row i*u*u + j of y_detail is coarse point i folded through grid cell j.
    """
    coords = np.asarray(seed_coords, dtype=np.float64)
    z = np.asarray(seed_features, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise DimensionMismatch(f"seed_coords shape {coords.shape}")
    if coords.shape[0] < 1:
        raise DimensionMismatch("need at least one seed")
    if z.shape != (coords.shape[0], heads.config.feature_dim):
        raise DimensionMismatch(
            f"seed_features shape {z.shape}, expected "
            f"({coords.shape[0]}, {heads.config.feature_dim})")
    params = {k: ad.leaf(v) for k, v in heads.params.items()}
    y_coarse, h_coarse, y_detail = decode_graph(
        params, ad.leaf(coords), ad.leaf(z), heads.grid)
    return ReconstructionOutput(y_coarse.data, h_coarse.data, y_detail.data)


def build_targets(complete_scene: SceneInstance, n: int, u: int,
                  rng_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Nested FPS ground truths: coarse (n points), detail (u*u*n points).

    One FPS run gives both: its first n picks are themselves an FPS run of
    n points, so the coarse target is the detail target's prefix.
    """
    pts = complete_scene.points
    need = u * u * n
    if pts.shape[0] < need:
        raise TooFewPoints(
            f"scene has {pts.shape[0]} points, targets need {need}")
    gt_detail = pts[farthest_point_sample(pts, need, rng_seed)]
    return gt_detail[:n], gt_detail


@dataclass(frozen=True)
class PreparedPair:
    """Fixed (non-differentiable) inputs of one pair for loss evaluation.

    ``categories`` holds one entry per object. Each side's coarse target is
    the first ``len(coords)`` rows of its detail target (`build_targets`).
    """

    coords_a: np.ndarray
    coords_b: np.ndarray
    object_ids_a: np.ndarray
    object_ids_b: np.ndarray
    categories: np.ndarray
    matches: MatchSet
    gt_detail_a: np.ndarray
    gt_detail_b: np.ndarray


def prepare_scene_pair(pair: ScenePair, n_seeds: int, m_matches: int,
                       theta: float, u: int, rng_seed: int,
                       occlude: bool = True) -> PreparedPair:
    """`occlude_pair`, then `prepare_occluded_pair` on its result."""
    occluded, _, _ = occlude_pair(pair, rng_seed, occlude)
    return prepare_occluded_pair(pair, occluded, n_seeds, m_matches, theta,
                                 u, rng_seed)


def prepare_occluded_pair(pair: ScenePair, occluded: ScenePair,
                          n_seeds: int, m_matches: int, theta: float, u: int,
                          rng_seed: int) -> PreparedPair:
    """Sample encoder seeds, match, and build reconstruction targets.

    Encoder seeds are an FPS subset of each occluded scene; the match seeds
    are an FPS subset of the encoder seeds (scene A) matched against an
    equally sized FPS candidate pool of scene B's encoder seeds. Matches are
    expressed as row indices into the encoder seed arrays. Targets come from
    the complete ``pair``.
    """
    scene_a, scene_b = occluded.scene_a, occluded.scene_b
    # seed count is clamped so the occluded cloud can supply the seeds and
    # the complete cloud can supply u^2 * n target points
    n_cap_a = min(n_seeds, scene_a.points.shape[0],
                  pair.scene_a.points.shape[0] // (u * u))
    n_cap_b = min(n_seeds, scene_b.points.shape[0],
                  pair.scene_b.points.shape[0] // (u * u))
    if n_cap_a < 1 or n_cap_b < 1:
        raise TooFewPoints(
            f"scenes too small for u={u}: caps ({n_cap_a}, {n_cap_b})")
    seeds_a = sample_seed_set(scene_a, n_cap_a,
                              mix64(rng_seed, STREAM_SEEDS_A))
    seeds_b = sample_seed_set(scene_b, n_cap_b,
                              mix64(rng_seed, STREAM_SEEDS_B))
    # match within the encoder seed arrays: positions, not scene indices
    pool_a, pool_b = (SeedSet(np.arange(s.m), s.coords, s.object_ids)
                      for s in (seeds_a, seeds_b))
    matches = match_fps_pools(occluded, pool_a, pool_b, m_matches, theta,
                              rng_seed)
    _, gt_detail_a = build_targets(
        pair.scene_a, seeds_a.m, u, mix64(rng_seed, STREAM_TARGETS_A))
    _, gt_detail_b = build_targets(
        pair.scene_b, seeds_b.m, u, mix64(rng_seed, STREAM_TARGETS_B))
    categories = np.array([o.category_id for o in pair.scene_a.objects],
                          dtype=np.intp)
    return PreparedPair(
        coords_a=seeds_a.coords, coords_b=seeds_b.coords,
        object_ids_a=seeds_a.object_ids, object_ids_b=seeds_b.object_ids,
        categories=categories, matches=matches,
        gt_detail_a=gt_detail_a, gt_detail_b=gt_detail_b)


def _encoded_sides(prepared: Sequence[PreparedPair],
                   params: dict[str, ad.Var], encoder: ToyEncoder
                   ) -> list[tuple[ad.Var, ad.Var]]:
    """(seed coordinates, features z) of side a, then side b, of each pair."""
    sides = []
    for pp in prepared:
        for coords, ids in ((pp.coords_a, pp.object_ids_a),
                            (pp.coords_b, pp.object_ids_b)):
            cvar = ad.constant(coords)
            sides.append((cvar, encoder.encode_graph(params, cvar, ids,
                                                     len(pp.categories))))
    return sides


def _contrastive_graph(prepared: Sequence[PreparedPair],
                       params: dict[str, ad.Var], encoder: ToyEncoder,
                       sides: list[tuple[ad.Var, ad.Var]], tau: float
                       ) -> tuple[dict[str, ad.Var], dict]:
    """l_obj and l_pts over the projected features of ``sides``."""
    h = [encoder.project_graph(params, z) for _, z in sides]
    h_vars = list(zip(h[0::2], h[1::2]))
    object_ids = [(pp.object_ids_a, pp.object_ids_b) for pp in prepared]
    l_obj, obj_counts = object_level_graph(
        h_vars, object_ids, [pp.categories for pp in prepared], tau)
    l_pts, pts_counts = point_level_graph(
        h_vars, object_ids, [pp.matches for pp in prepared], tau)
    counts = {"object_" + k: v for k, v in obj_counts.items()}
    counts.update({"point_" + k: v for k, v in pts_counts.items()})
    return {"l_obj": l_obj, "l_pts": l_pts}, counts


def _reconstruction_graph(prepared: Sequence[PreparedPair],
                          params: dict[str, ad.Var], heads: DecoderHeads,
                          sides: list[tuple[ad.Var, ad.Var]]
                          ) -> dict[str, ad.Var]:
    """Scene-mean coarse and detail Chamfer of the decoded ``sides``."""
    targets = [t for pp in prepared for t in (pp.gt_detail_a, pp.gt_detail_b)]
    coarse, detail = [], []
    for (cvar, z), gt_d in zip(sides, targets):
        y_coarse, _, y_detail = decode_graph(params, cvar, z, heads.grid)
        gt_c = gt_d[:y_coarse.data.shape[0]]
        coarse.append(ad.chamfer(y_coarse, ad.constant(gt_c)))
        detail.append(ad.chamfer(y_detail, ad.constant(gt_d)))
    w = [1.0 / len(sides)] * len(sides)
    return {"l_rec_coarse": ad.wsum(coarse, w),
            "l_rec_detail": ad.wsum(detail, w)}


def _param_arrays(encoder: ToyEncoder, heads: DecoderHeads
                  ) -> dict[str, np.ndarray]:
    """Every parameter, keyed "encoder.<name>" / "heads.<name>"."""
    return {f"{scope}.{k}": v
            for scope, net in (("encoder", encoder), ("heads", heads))
            for k, v in net.params.items()}


def _overall_graph(prepared, param_arrays, encoder, heads, tau, lambda_pts,
                   lambda_rec) -> tuple[dict[str, ad.Var], dict, dict]:
    """The full forward tape over a batch: leaf Vars for ``param_arrays``,
    the loss Vars and counts; the losses add l_rec = coarse + detail and
    l_overall = obj + lambda_pts * pts + lambda_rec * rec to the four
    reported terms."""
    params = {k: ad.leaf(v) for k, v in param_arrays.items()}
    short = _short_names(params)
    sides = _encoded_sides(prepared, short, encoder)
    losses, counts = _contrastive_graph(prepared, short, encoder, sides, tau)
    losses.update(_reconstruction_graph(prepared, short, heads, sides))
    return params, _add_overall(losses, lambda_pts, lambda_rec), counts


def _short_names(params: dict[str, ad.Var]) -> dict[str, ad.Var]:
    return {k.split(".", 1)[1]: v for k, v in params.items()}


def _add_overall(losses: dict[str, ad.Var], lambda_pts: float,
                 lambda_rec: float) -> dict[str, ad.Var]:
    losses["l_rec"] = ad.wsum([losses["l_rec_coarse"],
                               losses["l_rec_detail"]])
    losses["l_overall"] = ad.wsum(
        [losses["l_obj"], losses["l_pts"], losses["l_rec"]],
        [1.0, lambda_pts, lambda_rec])
    return losses


def forward_backward(prepared: Sequence[PreparedPair],
                     encoder: ToyEncoder, heads: DecoderHeads,
                     tau: float = TAU, lambda_pts: float = LAMBDA_PTS,
                     lambda_rec: float = LAMBDA_REC,
                     with_gradients: bool = True) -> LossReport:
    """Evaluate all pretext losses on a batch of prepared pairs.

    Returns a LossReport whose overall value satisfies
    overall = obj + lambda_pts * pts + lambda_rec * (coarse + detail)
    exactly, and (optionally) the analytic gradient of l_overall, the
    objective training minimises, for every encoder and head parameter:
    gradients = {"l_overall": {"encoder.<name>" / "heads.<name>": array}}.
    That gradient comes from one reverse sweep of the l_overall root, so
    the encoder is swept once, not once per term.
    """
    if not prepared:
        raise EmptyBatch("no scene pairs")
    params, losses, counts = _overall_graph(
        prepared, _param_arrays(encoder, heads), encoder, heads, tau,
        lambda_pts, lambda_rec)
    gradients = None
    if with_gradients:
        gradients = {"l_overall": _sweep(losses["l_overall"], params)}
    return LossReport(
        **{k: losses[k].item() for k in LOSS_TERMS},
        lambda_pts=lambda_pts, lambda_rec=lambda_rec,
        counts=counts, gradients=gradients)


def _sweep(root: ad.Var, params: dict[str, ad.Var]
           ) -> dict[str, np.ndarray]:
    """One reverse sweep of ``root``; a parameter it does not reach gets
    zeros."""
    for v in params.values():
        # backward() resets only what it reaches, so an unreached leaf
        # would keep the gradient of an earlier sweep of the same tape
        v.grad = None
    root.backward()
    # backward() gives every parameter it reaches a fresh array, so the
    # dicts of earlier sweeps are never overwritten
    return {name: v.grad if v.grad is not None else np.zeros_like(v.data)
            for name, v in params.items()}


def _term_gradients(prepared: Sequence[PreparedPair], encoder: ToyEncoder,
                    heads: DecoderHeads, tau: float, lambda_pts: float,
                    lambda_rec: float) -> dict[str, dict[str, np.ndarray]]:
    """The l_obj, l_pts and l_rec gradients, one sweep each, keyed like
    forward_backward's; a verification product for gradient_check."""
    params, losses, _ = _overall_graph(
        prepared, _param_arrays(encoder, heads), encoder, heads, tau,
        lambda_pts, lambda_rec)
    return {term: _sweep(losses[term], params)
            for term in ("l_obj", "l_pts", "l_rec")}


def save_checkpoint(encoder: ToyEncoder, heads: DecoderHeads, path) -> None:
    """Write all named parameter tensors with shapes as one JSON document."""
    doc = {
        "encoder_config": asdict(encoder.config),
        "heads_config": asdict(heads.config),
        "params": {key: {"shape": list(arr.shape),
                         "data": arr.ravel().tolist()}
                   for key, arr in _param_arrays(encoder, heads).items()},
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)


def load_checkpoint(path) -> tuple[ToyEncoder, DecoderHeads]:
    """Load a checkpoint, validating every tensor against its shape entry.

    Bad structure (missing key, unknown config field or parameter scope)
    or a non-finite value raises CorruptManifest; a wrong tensor size or
    shape, or heads whose feature_dim is not the encoder's,
    DimensionMismatch.
    """
    with open(path) as f:
        doc = json.load(f)
    try:
        enc_cfg = EncoderConfig(**doc["encoder_config"])
        heads_cfg = HeadsConfig(**doc["heads_config"])
        entries = {key: (entry["data"], tuple(entry["shape"]))
                   for key, entry in doc["params"].items()}
    except (KeyError, TypeError) as e:  # missing key, unknown config field
        raise CorruptManifest(f"checkpoint {path}: {e!r}") from None
    if enc_cfg.feature_dim != heads_cfg.feature_dim:
        raise DimensionMismatch(
            f"checkpoint {path}: encoder feature_dim {enc_cfg.feature_dim}, "
            f"heads feature_dim {heads_cfg.feature_dim}")
    scoped: dict[str, dict[str, np.ndarray]] = {"encoder": {}, "heads": {}}
    for key, (data, shape) in entries.items():
        scope, _, name = key.partition(".")
        if scope not in scoped:
            raise CorruptManifest(
                f"checkpoint {path}: {key!r} has unknown scope {scope!r}")
        arr = np.array(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise CorruptManifest(
                f"checkpoint {path}: {key} holds non-finite values")
        if arr.size != int(np.prod(shape)):
            raise DimensionMismatch(
                f"{key}: {arr.size} values for shape {shape}")
        scoped[scope][name] = arr.reshape(shape)
    encoder = ToyEncoder(enc_cfg, params=scoped["encoder"])
    heads = DecoderHeads(heads_cfg, params=scoped["heads"])
    return encoder, heads


@dataclass
class GradientCheckResult:
    ok: bool
    max_rel_error: float
    per_term: dict[str, float]
    worst: dict[str, str] = field(default_factory=dict)
    n_entries: int = 0
    n_kink_entries: int = 0


# gradient_check's central-difference step and relative tolerance
GRADCHECK_STEP = 1e-5
GRADCHECK_RTOL = 1e-4
# gradient_check compares entries below this magnitude absolutely
GRADCHECK_FLOOR = 1e-3
# a failing entry is re-probed at step / GRADCHECK_KINK_REFINE
GRADCHECK_KINK_REFINE = 16


def gradient_check(prepared: Sequence[PreparedPair], encoder: ToyEncoder,
                   heads: DecoderHeads, tau: float = TAU,
                   lambda_pts: float = LAMBDA_PTS,
                   lambda_rec: float = LAMBDA_REC,
                   step: float = GRADCHECK_STEP,
                   rtol: float = GRADCHECK_RTOL) -> GradientCheckResult:
    """Central finite differences against the analytic gradients.

    The l_obj, l_pts and l_rec gradients come from one sweep of each term;
    the l_overall gradient is forward_backward's, the one training uses,
    from its own single sweep, so it is checked as computed, not as a
    recombination of the other three.

    For every scalar parameter the full forward pass is evaluated at +/-
    step and compared per term. The per-entry relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, GRADCHECK_FLOOR);
    entries smaller than the floor are thus compared absolutely at
    floor * rtol (1e-7 by default), which sits well above
    central-difference roundoff (about eps * |loss| / step, around 1e-9
    here) and well below the magnitude any genuinely wrong gradient
    produces.

    The losses are piecewise smooth (ReLU, max-pooling, nearest-neighbor
    assignments), so a probe of +/- step occasionally straddles an argmin
    reassignment where the finite difference no longer estimates the
    derivative. Entries that fail at the primary step are therefore
    re-probed at step / GRADCHECK_KINK_REFINE: a genuinely wrong gradient
    still fails, while a crossing is confirmed against the refined
    estimate. Confirmed crossings are counted in n_kink_entries.

    A parameter the features z do not depend on (a projection or head
    weight) moves only one half of the loss graph, so its probes rebuild
    that half on the unperturbed z and reuse the other half's values;
    every probe value is bit-identical to a full forward pass.
    """
    analytic = _term_gradients(prepared, encoder, heads, tau, lambda_pts,
                               lambda_rec)
    analytic.update(forward_backward(prepared, encoder, heads, tau,
                                     lambda_pts, lambda_rec).gradients)
    terms = list(analytic)
    leaves = {k: ad.leaf(v.copy())
              for k, v in _param_arrays(encoder, heads).items()}
    # probes are written into the leaves' own arrays
    work = {k: v.data for k, v in leaves.items()}
    short = _short_names(leaves)

    def reached(roots) -> set[str]:
        ids = {id(v) for r in roots for v in ad._topo_order(r)}
        return {k for k, v in leaves.items() if id(v) in ids}

    sides = _encoded_sides(prepared, short, encoder)
    feeds_z = reached([z for _, z in sides])
    frozen = [(cvar, ad.constant(z.data)) for cvar, z in sides]
    halves = [
        lambda: _contrastive_graph(prepared, short, encoder, frozen, tau)[0],
        lambda: _reconstruction_graph(prepared, short, heads, frozen)]
    base = [half() for half in halves]
    feeds_half = [reached(losses.values()) for losses in base]

    def values(name) -> dict[str, float]:
        if name in feeds_z:
            _, losses, _ = _overall_graph(prepared, work, encoder, heads,
                                          tau, lambda_pts, lambda_rec)
        else:
            losses = {}
            for half, fixed, feeds in zip(halves, base, feeds_half):
                losses.update(half() if name in feeds else fixed)
            losses = _add_overall(losses, lambda_pts, lambda_rec)
        return {t: losses[t].item() for t in terms}

    def fd_at(work, name, i, h) -> dict[str, float]:
        flat = work[name].ravel()
        orig = flat[i]
        flat[i] = orig + h
        plus = values(name)
        flat[i] = orig - h
        minus = values(name)
        flat[i] = orig
        return {t: (plus[t] - minus[t]) / (2 * h) for t in terms}

    def rel_err(a: float, n: float) -> float:
        return abs(a - n) / max(abs(a), abs(n), GRADCHECK_FLOOR)

    per_term = {t: 0.0 for t in terms}
    worst = {t: "" for t in terms}
    n_entries = 0
    n_kink = 0
    for name, arr in work.items():
        for i in range(arr.size):
            n_entries += 1
            numeric = fd_at(work, name, i, step)
            refined = None
            for t in terms:
                a = float(analytic[t][name].ravel()[i])
                rel = rel_err(a, numeric[t])
                if rel > rtol:
                    if refined is None:
                        refined = fd_at(work, name, i,
                                        step / GRADCHECK_KINK_REFINE)
                        n_kink += 1
                    rel = rel_err(a, refined[t])
                if rel > per_term[t]:
                    per_term[t] = rel
                    worst[t] = f"{name}[{i}]"
    max_rel = max(per_term.values())
    return GradientCheckResult(ok=max_rel <= rtol, max_rel_error=max_rel,
                               per_term=per_term, worst=worst,
                               n_entries=n_entries, n_kink_entries=n_kink)
