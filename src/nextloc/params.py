"""Named parameter store with Adam state and a binary checkpoint format.

Checkpoint layout (version 1, documented byte-exact):

* bytes 0..7    magic ``NLCKPT01``
* bytes 8..15   little-endian u64, JSON header length ``n``
* bytes 16..16+n  UTF-8 JSON: ``{"version": 1, "step": int, "seed": int,
  "meta": {...}, "tensors": [{"name": str, "shape": [int, ...]}, ...]}``
* then, for each tensor in header order: parameter values, first moment,
  second moment, each as C-order float64 little-endian raw bytes.

`save_checkpoint` writes a temporary file beside the target and renames it
into place, so a failed write leaves any earlier checkpoint untouched.
Loading reproduces the store bit-exactly. It first checks the sizes the
header declares against the bytes the file has, then reads each array
straight into its final buffer. It raises `CheckpointError` for a header
that is not such JSON, a `version`, `step`, `seed` or shape entry that is
not a JSON integer (a boolean is not one) of at least 0, a tensor name
that is not a string, a `meta` that is not an object, a tensor listed
twice, a tensor the rest of the file is too short for, or bytes after the
last tensor.

A parameter has a gradient buffer only from the first `backward` of a
training step that reaches it until that step's `adam_step`, which releases
it once the update is written; between steps, and in a built, loaded or
cloned store, every `.grad` is None. `grad_norm`, `clip_global_norm` and
`adam_step` read None as a zero gradient. Inference needs only the values,
so `load_checkpoint(path, moments=False)`, which `evaluate` and `analyze`
use, reads the values and seeks past `m` and `v`, and refuses a tensor
with a non-finite value; such a store refuses `adam_step` and
`save_checkpoint`.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .atomic import atomic_write
from .autodiff import Tensor

CHECKPOINT_MAGIC = b"NLCKPT01"
ADAM_BLOCK = 32768  # elements of each array that Adam updates at a time (256 KiB)


class CheckpointError(Exception):
    pass


class _Entry:
    """A parameter and its Adam moments; `m` and `v` are None in a store
    loaded without them."""

    __slots__ = ("tensor", "m", "v")

    def __init__(self, tensor: Tensor, m: np.ndarray | None, v: np.ndarray | None):
        self.tensor = tensor
        self.m = m
        self.v = v


def _fan_in(shape) -> int:
    return shape[-1] if len(shape) > 1 else shape[0]


class ParamStore:
    """All trainable tensors of one model, keyed by name, plus Adam moments
    and a shared step counter. Creation order is the seeded-init draw order,
    so building the same parameter set twice yields identical values."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.entries: dict[str, _Entry] = {}
        self.step = 0
        self._scratch = np.empty(ADAM_BLOCK)

    def add(self, name: str, shape, init: str = "fanin") -> Tensor:
        if name in self.entries:
            raise ValueError(f"duplicate parameter {name!r}")  # before the draw, which would shift later ones
        shape = tuple(int(d) for d in shape)
        if init == "fanin":
            bound = 1.0 / np.sqrt(_fan_in(shape))
            value = self._rng.uniform(-bound, bound, size=shape)
        elif init == "zeros":
            value = np.zeros(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        return self.adopt(name, value, np.zeros_like(value), np.zeros_like(value))

    def adopt(self, name: str, value: np.ndarray, m: np.ndarray | None, v: np.ndarray | None) -> Tensor:
        """Add parameter `name` holding `value` itself (no copy), with Adam
        moments `m` and `v` or none."""
        if name in self.entries:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(value, requires_grad=True)
        self.entries[name] = _Entry(t, m, v)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.entries[name].tensor

    def names(self) -> list[str]:
        return list(self.entries)

    def zero_grad(self) -> None:
        """Release every gradient buffer; the next `backward` starts from zero."""
        for e in self.entries.values():
            e.tensor.grad = None

    def _grads(self) -> list[np.ndarray]:
        """The allocated gradient buffers; a None `.grad` is a zero gradient."""
        return [e.tensor.grad for e in self.entries.values() if e.tensor.grad is not None]

    def _require_moments(self, what: str) -> None:
        if any(e.m is None for e in self.entries.values()):
            raise CheckpointError(f"cannot {what}: the store was loaded without its Adam moments (values only)")

    def grad_norm(self) -> float:
        # einsum sums the squares with no temporary and no BLAS call, whose sums follow the thread count
        sq = sum(float(np.einsum("i,i->", f, f)) for f in (g.reshape(-1) for g in self._grads()))
        return float(np.sqrt(sq))

    def clip_global_norm(self, max_norm: float) -> float:
        """Scale all gradients so their joint L2 norm is at most max_norm."""
        norm = self.grad_norm()
        if norm > max_norm:
            scale = max_norm / norm
            for g in self._grads():
                g *= scale
        return norm

    def adam_step(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        """Bias-corrected Adam update; releases the gradients and bumps the
        step.

        Computes m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
        value -= (lr m_hat) / (sqrt(v_hat) + eps) in that operation order,
        in place: the gradient buffer holds (1 - b1) g and then the update,
        and one scratch block the other temporaries. Each tensor is updated
        `ADAM_BLOCK` elements at a time, so the five arrays of a block stay
        in cache across the fourteen operations. A parameter whose `.grad`
        is None is updated with a zeroed buffer. Every `.grad` is None
        afterwards."""
        self._require_moments("run Adam")
        self.step += 1
        t = self.step
        c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for e in self.entries.values():
            grad = e.tensor.grad if e.tensor.grad is not None else np.zeros_like(e.tensor.value)
            value, m, v, grad = (a.reshape(-1) for a in (e.tensor.value, e.m, e.v, grad))
            for lo in range(0, grad.size, ADAM_BLOCK):
                hi = lo + ADAM_BLOCK
                g, mb, vb = grad[lo:hi], m[lo:hi], v[lo:hi]
                tmp = self._scratch[: g.size]
                vb *= beta2
                np.multiply(g, 1.0 - beta2, out=tmp)
                tmp *= g
                vb += tmp
                mb *= beta1
                g *= 1.0 - beta1
                mb += g
                np.divide(mb, c1, out=g)
                g *= lr
                np.divide(vb, c2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += eps
                g /= tmp
                value[lo:hi] -= g
            e.tensor.grad = None


def _preallocate(fh, size: int) -> None:
    """Reserve the blocks of a file about to be written. On ext4 this spares
    a rename that replaces an existing file its flush of the new file's
    delayed allocation (auto_da_alloc), which otherwise doubles the cost of
    a small checkpoint. Only a hint: where it is missing or refused, the
    write goes ahead without it."""
    if hasattr(os, "posix_fallocate"):
        with contextlib.suppress(OSError):
            os.posix_fallocate(fh.fileno(), 0, size)


def save_checkpoint(path, store: ParamStore, meta: dict | None = None) -> None:
    store._require_moments("save a checkpoint")
    names = store.names()
    header = {
        "version": 1,
        "step": store.step,
        "seed": store.seed,
        "meta": meta or {},
        "tensors": [{"name": n, "shape": list(store[n].value.shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        _preallocate(fh, 16 + len(blob) + sum(24 * store[n].value.size for n in names))
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for n in names:
            e = store.entries[n]
            for arr in (e.tensor.value, e.m, e.v):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").data)
        fh.truncate()  # the file ends where the data does, whatever was preallocated


def load_checkpoint(path, moments: bool = True) -> tuple[ParamStore, dict]:
    """The store and meta of a checkpoint; with `moments=False` the store
    holds the values only, for inference, and a tensor with a non-finite
    value is refused. A full load leaves that to the first training step,
    which stops on a non-finite loss."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        size = os.fstat(fh.fileno()).st_size
        n = int.from_bytes(fh.read(8), "little")
        if n > size - fh.tell():
            raise CheckpointError(f"{path}: header declares {n} bytes, {size - fh.tell()} left")
        try:
            header = json.loads(fh.read(n).decode("utf-8"))
            version, step, seed, meta = header["version"], header["step"], header["seed"], header["meta"]
            specs = [(t["name"], t["shape"]) for t in header["tensors"]]
        except (ValueError, KeyError, TypeError) as e:
            raise CheckpointError(f"{path}: unreadable header: {type(e).__name__}: {e}") from None
        for key, value in (("version", version), ("step", step), ("seed", seed)):
            if not (type(value) is int and value >= 0):  # a JSON boolean loads as a bool, not an int
                raise CheckpointError(f"{path}: header {key} {value!r} is not an integer >= 0")
        if version != 1:
            raise CheckpointError(f"{path}: unsupported version {version}")
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: header meta is not an object")
        seen = set()
        for name, shape in specs:
            if not isinstance(name, str):
                raise CheckpointError(f"{path}: tensor name {name!r} is not a string")
            if name in seen:
                raise CheckpointError(f"{path}: tensor {name} is listed twice")
            seen.add(name)
            if not (isinstance(shape, list) and all(type(d) is int for d in shape)):
                raise CheckpointError(f"{path}: tensor {name} has shape {shape!r}, not a list of integers")
            if any(d < 0 for d in shape):
                raise CheckpointError(f"{path}: tensor {name} has negative dimensions {shape}")
        left = size - fh.tell()
        for name, shape in specs:
            need = 3 * 8 * math.prod(shape)
            if need > left:
                raise CheckpointError(f"{path}: truncated tensor {name}: declares {need} bytes, {left} left")
            left -= need
        if left:
            raise CheckpointError(f"{path}: trailing bytes after the last tensor")
        store = ParamStore(seed=seed)
        store.step = step
        for name, shape in specs:
            arrays = [np.empty(shape, dtype="<f8") for _ in range(3 if moments else 1)]
            for arr in arrays:
                if fh.readinto(arr) != arr.nbytes:
                    raise CheckpointError(f"{path}: truncated tensor {name}")
            if not moments:
                if not np.isfinite(arrays[0]).all():
                    raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
                fh.seek(2 * arrays[0].nbytes, os.SEEK_CUR)
                arrays += [None, None]
            store.adopt(name, *arrays)
    return store, meta
