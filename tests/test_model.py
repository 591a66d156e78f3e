import numpy as np
import pytest

from graph_ops import total
from nextloc import autodiff as ad
from nextloc.model import (
    Batch,
    ConfigError,
    ModelConfig,
    build_params,
    embed_step,
    forward,
    gru_weights,
    lsc_forward,
)

DIMS = dict(d_loc=4, d_cat=3, d_hour=2, d_day=2, d_user=2, hidden=5)


def toy_config(variant="cslsl", has_categories=True, **kw):
    base = dict(n_users=2, n_locs=3, n_cats=2, variant=variant, has_categories=has_categories, **DIMS)
    base.update(kw)
    return ModelConfig(**base)


def make_batch(hist, pref, user=0, t=0.25, cat=1, loc=2):
    """hist/pref: lists of (loc, cat, hour, day) tuples; single instance."""
    def arrays(rows):
        if rows:
            a = np.array(rows, dtype=np.intp)
            cols = [a[None, :, i] for i in range(4)]
        else:
            cols = [np.zeros((1, 0), dtype=np.intp)] * 4
        return cols + [np.ones((1, len(rows)))]

    h = arrays(hist)
    p = arrays(pref)
    return Batch(
        user=np.array([user], dtype=np.intp),
        hist_loc=h[0], hist_cat=h[1], hist_hour=h[2], hist_day=h[3], hist_mask=h[4],
        pref_loc=p[0], pref_cat=p[1], pref_hour=p[2], pref_day=p[3], pref_mask=p[4],
        target_t=np.array([t]),
        target_cat=np.array([cat], dtype=np.intp),
        target_loc=np.array([loc], dtype=np.intp),
    )


# ---------------------------------------------------------------------------
# numpy re-implementation used as the oracle
# ---------------------------------------------------------------------------

def np_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def np_gru(x, h, w_x, w_h, b):
    hd = h.shape[-1]
    gx = x @ w_x.T + b
    gh = h @ w_h.T
    z = np_sigmoid(gx[..., :hd] + gh[..., :hd])
    r = np_sigmoid(gx[..., hd:2 * hd] + gh[..., hd:2 * hd])
    n = np.tanh(gx[..., 2 * hd:] + r * gh[..., 2 * hd:])
    return (1 - z) * n + z * h


def np_embed(store, cfg, row, user):
    loc, cat, hour, day = row
    cat_row = cat if cfg.has_categories else 0
    return np.concatenate([
        store["emb.loc"].value[loc],
        store["emb.cat"].value[cat_row],
        store["emb.hour"].value[hour],
        store["emb.day"].value[day],
        store["emb.user"].value[user],
    ])


def np_lsc(store, branch, hist_e, pref_e, h0):
    h = h0
    for e in hist_e:
        h = np_gru(e, h, *(store[f"gru.{branch}.long.{p}"].value for p in ("w_x", "w_h", "b")))
    for e in pref_e:
        h = np_gru(e, h, *(store[f"gru.{branch}.short.{p}"].value for p in ("w_x", "w_h", "b")))
    return h


def np_affine(store, name, x):
    return x @ store[f"{name}.w"].value.T + store[f"{name}.b"].value


# ---------------------------------------------------------------------------
# record embedding
# ---------------------------------------------------------------------------

ONE = ad.Packing(np.ones((1, 1)))


def test_embedding_order_and_length():
    cfg = toy_config()
    store = build_params(cfg, seed=0)
    e = embed_step(store, cfg, [[0]], [[0]], [[0]], [[0]], [0], ONE)
    assert e.value.shape == (1, cfg.dim_record) == (1, 13)
    want = np.concatenate([
        store["emb.loc"].value[0], store["emb.cat"].value[0],
        store["emb.hour"].value[0], store["emb.day"].value[0],
        store["emb.user"].value[0],
    ])
    assert np.array_equal(e.value[0], want)


def test_embed_step_packs_real_records_time_major():
    cfg = toy_config()
    store = build_params(cfg, seed=0)
    loc, hour = np.array([[0, 2, 1], [1, 0, 0]]), np.array([[3, 4, 5], [6, 0, 0]])
    pack = ad.Packing(np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]))
    e = embed_step(store, cfg, loc, loc % 2, hour, hour % 7, [0, 1], pack)
    # (row, step) pairs in time-major order: (0, 0), (1, 0), (0, 1), (0, 2)
    want = [np_embed(store, cfg, (loc[i, t], loc[i, t] % 2, hour[i, t], hour[i, t] % 7), i)
            for i, t in ((0, 0), (1, 0), (0, 1), (0, 2))]
    assert np.array_equal(e.value, np.stack(want))


def test_default_dims_give_350():
    cfg = ModelConfig(n_users=2, n_locs=3, n_cats=2)
    assert cfg.dim_record == 350


def test_hour_change_touches_only_hour_slice():
    cfg = toy_config()
    store = build_params(cfg, seed=0)
    a = embed_step(store, cfg, [[1]], [[1]], [[3]], [[2]], [0], ONE).value[0]
    b = embed_step(store, cfg, [[1]], [[1]], [[7]], [[2]], [0], ONE).value[0]
    lo = cfg.d_loc + cfg.d_cat
    hi = lo + cfg.d_hour
    diff = a != b
    assert diff[lo:hi].any()
    assert not diff[:lo].any() and not diff[hi:].any()


def test_category_less_dataset_uses_shared_row():
    cfg = toy_config(variant="cslsl_c", has_categories=False)
    store = build_params(cfg, seed=0)
    assert store["emb.cat"].value.shape == (1, cfg.d_cat)
    a = embed_step(store, cfg, [[1]], [[0]], [[3]], [[2]], [0], ONE).value
    b = embed_step(store, cfg, [[1]], [[5]], [[3]], [[2]], [0], ONE).value  # stray index ignored
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# LSC
# ---------------------------------------------------------------------------

def zero_gru_pair(cfg):
    z = lambda shape: ad.constant(np.zeros(shape))
    from nextloc.autodiff import GRUWeights

    h, d = cfg.hidden, cfg.dim_record
    return (GRUWeights(z((3 * h, d)), z((3 * h, h)), z(3 * h)),
            GRUWeights(z((3 * h, d)), z((3 * h, h)), z(3 * h)))


NO_STEPS = ad.Packing(np.zeros((1, 0)))


def no_steps(cfg):
    return ad.constant(np.zeros((0, cfg.dim_record)))


def test_lsc_zero_everything():
    cfg = toy_config()
    wl, ws = zero_gru_pair(cfg)
    x = ad.constant(np.zeros((1, cfg.dim_record)))
    out, _, _ = lsc_forward(wl, ws, no_steps(cfg), x, ad.constant(np.zeros((1, cfg.hidden))), NO_STEPS, ONE)
    assert np.array_equal(out.value, np.zeros((1, cfg.hidden)))


def test_lsc_zero_weights_halves_h0():
    cfg = toy_config()
    wl, ws = zero_gru_pair(cfg)
    v = np.arange(1.0, cfg.hidden + 1)[None]
    out, _, _ = lsc_forward(wl, ws, no_steps(cfg), ad.constant(np.zeros((1, cfg.dim_record))), ad.constant(v),
                            NO_STEPS, ONE)
    assert np.allclose(out.value, 0.5 * v, atol=1e-15)


def test_lsc_empty_prefix_fatal():
    cfg = toy_config()
    wl, ws = zero_gru_pair(cfg)
    with pytest.raises(ValueError):
        lsc_forward(wl, ws, no_steps(cfg), no_steps(cfg), ad.constant(np.zeros((1, cfg.hidden))), NO_STEPS, NO_STEPS)


def test_lsc_matches_manual_four_step_unroll():
    cfg = toy_config()
    store = build_params(cfg, seed=5)
    rng = np.random.default_rng(0)
    steps = [rng.normal(size=(1, cfg.dim_record)) for _ in range(4)]
    h0 = rng.normal(size=(1, cfg.hidden))
    got, _, _ = lsc_forward(
        gru_weights(store, "gru.time.long"),
        gru_weights(store, "gru.time.short"),
        ad.constant(np.concatenate(steps[:2])),
        ad.constant(np.concatenate(steps[2:])),
        ad.constant(h0),
        ad.Packing(np.ones((1, 2))),
        ad.Packing(np.ones((1, 2))),
    )
    h = h0
    for s in steps[:2]:
        h = np_gru(s, h, *(store[f"gru.time.long.{p}"].value for p in ("w_x", "w_h", "b")))
    for s in steps[2:]:
        h = np_gru(s, h, *(store[f"gru.time.short.{p}"].value for p in ("w_x", "w_h", "b")))
    assert np.allclose(got.value, h, atol=1e-12)


# ---------------------------------------------------------------------------
# causal structure
# ---------------------------------------------------------------------------

def test_zero_network_outputs_zero():
    cfg = toy_config()
    store = build_params(cfg, seed=0, init="zeros")
    state = forward(store, cfg, make_batch([(0, 0, 1, 2)], [(1, 1, 3, 4)]))
    assert state.t_hat.value.item() == 0.0
    assert np.array_equal(state.cat_logits.value, np.zeros((1, 2)))
    assert np.array_equal(state.loc_logits.value, np.zeros((1, 3)))


def test_causal_forward_matches_hand_trace():
    cfg = toy_config()
    store = build_params(cfg, seed=42)
    hist = [(0, 0, 1, 2), (2, 1, 5, 6)]
    pref = [(1, 1, 7, 3)]
    state = forward(store, cfg, make_batch(hist, pref, user=1))

    hist_e = [np_embed(store, cfg, r, 1)[None] for r in hist]
    pref_e = [np_embed(store, cfg, r, 1)[None] for r in pref]
    zero = np.zeros((1, cfg.hidden))
    h_t = np_lsc(store, "time", hist_e, pref_e, zero)
    t_hat = np_affine(store, "pred.time", h_t)
    h_c = np_lsc(store, "cat", hist_e, pref_e, h_t)
    conv_t = np_affine(store, "conv.time", t_hat)
    c_logits = np_affine(store, "pred.cat", np.concatenate([h_c, conv_t], axis=1))
    h_l = np_lsc(store, "loc", hist_e, pref_e, h_c)
    conv_c = np_affine(store, "conv.cat", c_logits)
    l_logits = np_affine(store, "pred.loc", np.concatenate([h_l, conv_c], axis=1))

    assert np.allclose(state.t_hat.value, t_hat, atol=1e-12)
    assert np.allclose(state.cat_logits.value, c_logits, atol=1e-12)
    assert np.allclose(state.loc_logits.value, l_logits, atol=1e-12)


def test_ctl_order_swaps_first_two_branches():
    cfg = toy_config(variant="clsl_ctl")
    store = build_params(cfg, seed=42)
    hist = [(0, 0, 1, 2)]
    pref = [(1, 1, 7, 3)]
    state = forward(store, cfg, make_batch(hist, pref))

    hist_e = [np_embed(store, cfg, r, 0)[None] for r in hist]
    pref_e = [np_embed(store, cfg, r, 0)[None] for r in pref]
    zero = np.zeros((1, cfg.hidden))
    h_c = np_lsc(store, "cat", hist_e, pref_e, zero)
    c_logits = np_affine(store, "pred.cat", h_c)
    h_t = np_lsc(store, "time", hist_e, pref_e, h_c)
    t_hat = np_affine(store, "pred.time", np.concatenate([h_t, np_affine(store, "conv.cat", c_logits)], axis=1))
    h_l = np_lsc(store, "loc", hist_e, pref_e, h_t)
    l_logits = np_affine(store, "pred.loc", np.concatenate([h_l, np_affine(store, "conv.time", t_hat)], axis=1))
    assert np.allclose(state.cat_logits.value, c_logits, atol=1e-12)
    assert np.allclose(state.t_hat.value, t_hat, atol=1e-12)
    assert np.allclose(state.loc_logits.value, l_logits, atol=1e-12)


def test_dropped_branch_variants():
    batch = make_batch([(0, 0, 1, 2)], [(1, 1, 7, 3)])
    cfg_t = toy_config(variant="cslsl_t")
    state = forward(build_params(cfg_t, seed=1), cfg_t, batch)
    assert state.t_hat is None and state.cat_logits is not None

    cfg_c = toy_config(variant="cslsl_c")
    state = forward(build_params(cfg_c, seed=1), cfg_c, batch)
    assert state.cat_logits is None and state.t_hat is not None


def test_cslsl_c_runs_without_categories():
    cfg = toy_config(variant="cslsl_c", has_categories=False)
    store = build_params(cfg, seed=1)
    state = forward(store, cfg, make_batch([(0, 0, 1, 2)], [(1, 0, 7, 3)]))
    assert state.cat_logits is None
    assert state.loc_logits.value.shape == (1, 3)


def test_category_variant_without_categories_fatal():
    for variant in ("cslsl", "clsl", "clsl_ctl", "cslsl_t"):
        with pytest.raises(ConfigError):
            toy_config(variant=variant, has_categories=False)


# ---------------------------------------------------------------------------
# structural variants
# ---------------------------------------------------------------------------

def test_sblsl_zero_params_outputs_biases():
    cfg = toy_config(variant="sblsl")
    store = build_params(cfg, seed=0, init="zeros")
    store["pred.time.b"].value[:] = 0.5
    store["pred.cat.b"].value[:] = [1.0, -1.0]
    store["pred.loc.b"].value[:] = [0.1, 0.2, 0.3]
    state = forward(store, cfg, make_batch([(0, 0, 1, 2)], [(1, 1, 7, 3)]))
    assert state.t_hat.value.item() == 0.5
    assert np.array_equal(state.cat_logits.value, [[1.0, -1.0]])
    assert np.array_equal(state.loc_logits.value, [[0.1, 0.2, 0.3]])


def test_slsl_location_branch_equals_standalone_lsl():
    cfg_s = toy_config(variant="slsl")
    store_s = build_params(cfg_s, seed=7)
    cfg_l = toy_config(variant="lsl")
    store_l = build_params(cfg_l, seed=7)
    # transplant the slsl location branch + embeddings into the lsl model
    for name in store_l.names():
        src = name
        store_l[name].value[...] = store_s[src].value
    batch = make_batch([(0, 0, 1, 2), (2, 1, 5, 6)], [(1, 1, 7, 3)])
    out_s = forward(store_s, cfg_s, batch)
    out_l = forward(store_l, cfg_l, batch)
    assert np.array_equal(out_s.loc_logits.value, out_l.loc_logits.value)


def test_hlsl_downstream_width():
    cfg = toy_config(variant="hlsl")
    store = build_params(cfg, seed=1)
    assert store["gru.time.long.w_x"].value.shape == (3 * cfg.hidden, cfg.dim_record)
    assert store["gru.cat.long.w_x"].value.shape == (3 * cfg.hidden, cfg.dim_record + cfg.hidden)
    assert store["gru.loc.short.w_x"].value.shape == (3 * cfg.hidden, cfg.dim_record + cfg.hidden)


def test_hlsl_matches_hand_trace():
    cfg = toy_config(variant="hlsl")
    store = build_params(cfg, seed=9)
    hist = [(0, 0, 1, 2), (1, 0, 2, 3)]
    pref = [(2, 1, 7, 3)]
    state = forward(store, cfg, make_batch(hist, pref))

    hist_e = [np_embed(store, cfg, r, 0)[None] for r in hist]
    pref_e = [np_embed(store, cfg, r, 0)[None] for r in pref]
    zero = np.zeros((1, cfg.hidden))
    outputs = {}
    h_in, p_in = hist_e, pref_e
    for branch in ("time", "cat", "loc"):
        h = zero
        h_states, p_states = [], []
        for e in h_in:
            h = np_gru(e, h, *(store[f"gru.{branch}.long.{p}"].value for p in ("w_x", "w_h", "b")))
            h_states.append(h)
        for e in p_in:
            h = np_gru(e, h, *(store[f"gru.{branch}.short.{p}"].value for p in ("w_x", "w_h", "b")))
            p_states.append(h)
        outputs[branch] = np_affine(store, f"pred.{branch}", h)
        h_in = [np.concatenate([e, s], axis=1) for e, s in zip(hist_e, h_states)]
        p_in = [np.concatenate([e, s], axis=1) for e, s in zip(pref_e, p_states)]
    assert np.allclose(state.t_hat.value, outputs["time"], atol=1e-12)
    assert np.allclose(state.cat_logits.value, outputs["cat"], atol=1e-12)
    assert np.allclose(state.loc_logits.value, outputs["loc"], atol=1e-12)


# ---------------------------------------------------------------------------
# information flow
# ---------------------------------------------------------------------------

BATCH = make_batch([(0, 0, 1, 2), (2, 1, 5, 6)], [(1, 1, 7, 3)], user=1)


def test_causal_flow_is_downstream_only():
    cfg = toy_config()
    store = build_params(cfg, seed=3)
    base = forward(store, cfg, BATCH)
    store["gru.time.long.w_x"].value[0, 0] += 0.25
    bumped = forward(store, cfg, BATCH)
    assert not np.array_equal(base.t_hat.value, bumped.t_hat.value)
    assert not np.array_equal(base.cat_logits.value, bumped.cat_logits.value)
    assert not np.array_equal(base.loc_logits.value, bumped.loc_logits.value)


def test_location_head_perturbation_stays_local():
    cfg = toy_config()
    store = build_params(cfg, seed=3)
    base = forward(store, cfg, BATCH)
    store["pred.loc.w"].value += 0.5
    store["pred.loc.b"].value += 0.5
    bumped = forward(store, cfg, BATCH)
    assert np.array_equal(base.t_hat.value, bumped.t_hat.value)
    assert np.array_equal(base.cat_logits.value, bumped.cat_logits.value)
    assert not np.array_equal(base.loc_logits.value, bumped.loc_logits.value)


def test_slsl_branches_are_independent():
    cfg = toy_config(variant="slsl")
    store = build_params(cfg, seed=3)
    base = forward(store, cfg, BATCH)
    for name in store.names():
        if ".cat." in name or name.startswith("pred.cat"):
            store[name].value[...] = 0.0
    zeroed = forward(store, cfg, BATCH)
    assert np.array_equal(base.loc_logits.value, zeroed.loc_logits.value)
    assert np.array_equal(base.t_hat.value, zeroed.t_hat.value)


def test_argmax_invariant_to_constant_shift():
    cfg = toy_config()
    store = build_params(cfg, seed=3)
    logits = forward(store, cfg, BATCH).loc_logits.value
    assert np.argmax(logits) == np.argmax(logits + 17.5)


def test_forward_deterministic():
    cfg = toy_config()
    store = build_params(cfg, seed=3)
    a = forward(store, cfg, BATCH)
    b = forward(store, cfg, BATCH)
    assert np.array_equal(a.loc_logits.value, b.loc_logits.value)
    assert np.array_equal(a.t_hat.value, b.t_hat.value)


# ---------------------------------------------------------------------------
# parameter order and active heads of every variant
# ---------------------------------------------------------------------------

EMB = ["emb.loc", "emb.cat", "emb.hour", "emb.day", "emb.user"]


def grus(*branches):
    return [f"gru.{b}.{part}.{p}" for b in branches for part in ("long", "short") for p in ("w_x", "w_h", "b")]


def layers(*names):
    return [f"{n}.{p}" for n in names for p in ("w", "b")]


# (variant, has_categories) -> (parameter names in creation order, active heads)
PARAM_ORDER = {
    ("lsl", True): (grus("loc") + layers("pred.loc"), {"loc"}),
    ("lsl", False): (grus("loc") + layers("pred.loc"), {"loc"}),
    ("sblsl", True): (grus("shared") + layers("pred.time", "pred.cat", "pred.loc"), {"time", "cat", "loc"}),
    ("sblsl", False): (grus("shared") + layers("pred.time", "pred.loc"), {"time", "loc"}),
    ("slsl", True): (grus("time", "cat", "loc") + layers("pred.time", "pred.cat", "pred.loc"),
                     {"time", "cat", "loc"}),
    ("slsl", False): (grus("time", "loc") + layers("pred.time", "pred.loc"), {"time", "loc"}),
    ("hlsl", True): (grus("time", "cat", "loc") + layers("pred.time", "pred.cat", "pred.loc"),
                     {"time", "cat", "loc"}),
    ("hlsl", False): (grus("time", "loc") + layers("pred.time", "pred.loc"), {"time", "loc"}),
    ("clsl", True): (grus("time", "cat", "loc")
                     + layers("pred.time", "conv.time", "pred.cat", "conv.cat", "pred.loc"),
                     {"time", "cat", "loc"}),
    ("clsl_ctl", True): (grus("cat", "time", "loc")
                         + layers("pred.cat", "conv.cat", "pred.time", "conv.time", "pred.loc"),
                         {"time", "cat", "loc"}),
    ("cslsl", True): (grus("time", "cat", "loc")
                      + layers("pred.time", "conv.time", "pred.cat", "conv.cat", "pred.loc"),
                      {"time", "cat", "loc"}),
    ("cslsl_t", True): (grus("cat", "loc") + layers("pred.cat", "conv.cat", "pred.loc"), {"cat", "loc"}),
    ("cslsl_c", True): (grus("time", "loc") + layers("pred.time", "conv.time", "pred.loc"), {"time", "loc"}),
    ("cslsl_c", False): (grus("time", "loc") + layers("pred.time", "conv.time", "pred.loc"), {"time", "loc"}),
}


@pytest.mark.parametrize("variant,has_categories", sorted(PARAM_ORDER))
def test_parameter_order_and_active_heads(variant, has_categories):
    names, heads = PARAM_ORDER[(variant, has_categories)]
    cfg = toy_config(variant=variant, has_categories=has_categories)
    store = build_params(cfg, seed=0)
    assert list(store.names()) == EMB + names
    state = forward(store, cfg, make_batch([(0, 0, 1, 2)], [(1, 0, 7, 3)]))
    active = {h for h, out in (("time", state.t_hat), ("cat", state.cat_logits), ("loc", state.loc_logits))
              if out is not None}
    assert active == heads



# ---------------------------------------------------------------------------
# tape size
# ---------------------------------------------------------------------------

def tape_bytes(loss) -> int:
    """Bytes of the values of every operation node reachable from `loss`."""
    seen, stack, nbytes = {id(loss)}, [loss], 0
    while stack:
        node = stack.pop()
        if node._backward is not None:
            nbytes += node.value.nbytes
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nbytes


@pytest.mark.parametrize("variant", ["cslsl", "hlsl"])
def test_tape_grows_with_real_steps_not_padding(variant):
    cfg = toy_config(variant=variant, hidden=16)
    store = build_params(cfg, seed=0)
    bsz, th = 8, 200
    hist_mask = np.zeros((bsz, th))
    hist_mask[0] = 1.0  # one 200-step history, seven 1-step ones
    hist_mask[1:, 0] = 1.0
    hist = np.ones((bsz, th), dtype=np.intp)
    pref = np.ones((bsz, 1), dtype=np.intp)
    batch = Batch(
        user=np.arange(bsz) % 2,
        hist_loc=hist, hist_cat=hist, hist_hour=hist, hist_day=hist, hist_mask=hist_mask,
        pref_loc=pref, pref_cat=pref, pref_hour=pref, pref_day=pref, pref_mask=np.ones((bsz, 1)),
        target_t=np.full(bsz, 0.5), target_cat=np.ones(bsz, dtype=np.intp), target_loc=np.ones(bsz, dtype=np.intp),
    )
    loss = total(forward(store, cfg, batch).loc_logits)
    real = int(hist_mask.sum()) + bsz
    # per real pair: the five lookups and their concat, and per branch a packed
    # state and a hierarchical input; per row: final states, heads, converters
    per_pair = 4 * cfg.dim_record + 6 * cfg.hidden
    per_row = 8 * cfg.hidden + 8 * (cfg.n_locs + cfg.n_cats + 1)
    assert tape_bytes(loss) <= 8 * (real * per_pair + bsz * per_row) < 8 * bsz * th * (2 * cfg.dim_record + 3 * cfg.hidden)
