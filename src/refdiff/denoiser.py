"""A small trainable noise predictor with a mirrored reference branch.

Two structurally identical stacks of gated 1-D convolution blocks run
over F x T spectrograms projected to H hidden channels: the reference
branch encodes the prepared reference spectrogram once, and each of its
block outputs is injected into the matching denoising block through a
zero-initialized linear map, so the reference contributes exactly
nothing until training moves those weights.  The output projection
predicts the noise on top of an identity skip from the input,
eps_hat = out_w h_L + out_b + x_t, so x_t reaches the output without
passing the H-channel bottleneck; the skip has no parameters and its
gradient does not reach any.  Forward passes record the activations an
exact manual backward pass needs: per branch its input, every block's
input hidden state and gate halves tanh(a) and sigmoid(b).  They record
no weights, since backward reads every weight from ``params``, and no
K*H x T convolution window matrix: it is a shifted copy of the block's
input, and backward builds it again from that.
``grad_check`` verifies the analytic gradients with central finite
differences.

Everything runs in float64 with explicit parameter arrays (no autograd)
so gradient checks are tight and runs are bit-reproducible.  The gate's
sigmoid is NumPy's 1 / (1 + exp(-b)); where exp(-b) overflows (b below
about -709.78) it is exactly 0.0, its limit, with no warning.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

ARCH_KEYS = ("n_mels", "hidden", "depth", "cond_dim", "step_dim", "kernel")


def step_embedding(t: int, dim: int) -> np.ndarray:
    """Sinusoidal step embedding: sin(t / 10000^(2i/dim)) then the cosines."""
    if dim % 2 != 0 or dim < 2:
        raise ValueError("embedding dim must be a positive even integer")
    if t < 0:
        raise ValueError("step must be >= 0")
    idx = np.arange(dim // 2, dtype=np.float64)
    angles = t / np.power(10000.0, 2.0 * idx / dim)
    return np.concatenate([np.sin(angles), np.cos(angles)])


@dataclass
class BlockParams:
    conv_w: np.ndarray  # (2H, H, K)
    conv_b: np.ndarray  # (2H,)


@dataclass
class BranchParams:
    in_w: np.ndarray  # (H, F)
    in_b: np.ndarray  # (H,)
    blocks: list[BlockParams]


@dataclass
class DenoiserParams:
    """All learnable arrays plus the architecture sizes that shape them.

    The reference branch mirrors the denoising branch exactly; the
    zero-linear maps start at exactly zero weight and bias.
    """

    n_mels: int
    hidden: int
    depth: int
    cond_dim: int
    step_dim: int
    kernel: int
    denoise: BranchParams
    ref: BranchParams
    zero_w: list[np.ndarray]  # L x (H, H)
    zero_b: list[np.ndarray]  # L x (H,)
    out_w: np.ndarray  # (F, H)
    out_b: np.ndarray  # (F,)
    step_w: np.ndarray  # (H, E)
    step_b: np.ndarray  # (H,)
    cond_w: np.ndarray  # (H, D)
    cond_b: np.ndarray  # (H,)
    flat: np.ndarray  # every array above is a view into this vector

    def named_arrays(self):
        """(name, array) pairs in fixed declaration order.

        This order is the order in which the arrays tile ``flat``, and
        so the RDCK payload; do not reorder.
        """
        for branch_name, branch in (("denoise", self.denoise), ("ref", self.ref)):
            yield f"{branch_name}.in_w", branch.in_w
            yield f"{branch_name}.in_b", branch.in_b
            for i, block in enumerate(branch.blocks):
                yield f"{branch_name}.block{i}.conv_w", block.conv_w
                yield f"{branch_name}.block{i}.conv_b", block.conv_b
        for i in range(self.depth):
            yield f"zero{i}.w", self.zero_w[i]
            yield f"zero{i}.b", self.zero_b[i]
        yield "out.w", self.out_w
        yield "out.b", self.out_b
        yield "step.w", self.step_w
        yield "step.b", self.step_b
        yield "cond.w", self.cond_w
        yield "cond.b", self.cond_b

    def n_parameters(self) -> int:
        return sum(arr.size for _, arr in self.named_arrays())

    def arch(self) -> dict:
        return {key: getattr(self, key) for key in ARCH_KEYS}


def _shapes(n_mels, hidden, depth, cond_dim, step_dim, kernel) -> list[tuple[int, ...]]:
    """The stored shape of every array, in ``named_arrays`` order.

    Raises ValueError unless every size is at least 1 and the kernel is odd.
    """
    arch = zip(ARCH_KEYS, (n_mels, hidden, depth, cond_dim, step_dim, kernel))
    small = [f"{key}={value}" for key, value in arch if value < 1]
    if small:
        raise ValueError(f"every size must be at least 1, got {', '.join(small)}")
    if kernel % 2 == 0:
        raise ValueError("kernel must be a positive odd integer")
    # conv weights are stored (2H, K, H): the (2H, H, K) view of that is
    # what _flatten_conv turns back into a view instead of a copy
    branch = [(hidden, n_mels), (hidden,)] + [(2 * hidden, kernel, hidden), (2 * hidden,)] * depth
    zero = [(hidden, hidden), (hidden,)] * depth
    heads = [(n_mels, hidden), (n_mels,), (hidden, step_dim), (hidden,), (hidden, cond_dim), (hidden,)]
    return branch + branch + zero + heads


def _zero_params(n_mels, hidden, depth, cond_dim, step_dim, kernel) -> DenoiserParams:
    """Every array at zero, as consecutive views into one flat vector."""
    shapes = _shapes(n_mels, hidden, depth, cond_dim, step_dim, kernel)
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.zeros(sum(sizes))
    views = (part.reshape(shape) for part, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes))

    def _branch() -> BranchParams:
        in_w, in_b = next(views), next(views)
        blocks = [BlockParams(next(views).transpose(0, 2, 1), next(views)) for _ in range(depth)]
        return BranchParams(in_w, in_b, blocks)

    denoise, ref = _branch(), _branch()
    zero = [next(views) for _ in range(2 * depth)]
    # the six views left are out_w, out_b, step_w, step_b, cond_w and cond_b
    return DenoiserParams(
        n_mels, hidden, depth, cond_dim, step_dim, kernel, denoise, ref, zero[0::2], zero[1::2], *views, flat=flat
    )


def init_params(
    n_mels: int = 80,
    hidden: int = 64,
    depth: int = 4,
    cond_dim: int = 2,
    step_dim: int = 32,
    kernel: int = 3,
    seed: int = 0,
) -> DenoiserParams:
    """Random initialization; both branches start from the identical draw."""
    params = _zero_params(n_mels, hidden, depth, cond_dim, step_dim, kernel)
    rng = np.random.default_rng(seed)

    def _draw(arr: np.ndarray, fan_in: int) -> None:
        arr[...] = rng.standard_normal(arr.shape) / np.sqrt(fan_in)

    _draw(params.denoise.in_w, n_mels)
    params.ref.in_w[...] = params.denoise.in_w
    for block, ref_block in zip(params.denoise.blocks, params.ref.blocks):
        _draw(block.conv_w, hidden * kernel)
        ref_block.conv_w[...] = block.conv_w
    _draw(params.out_w, hidden)
    _draw(params.step_w, step_dim)
    _draw(params.cond_w, cond_dim)
    return params


def randomize_params(params: DenoiserParams, seed: int, scale: float = 0.3) -> DenoiserParams:
    """Fill every array (zero-linears included) with random values; for tests."""
    rng = np.random.default_rng(seed)
    for _, arr in params.named_arrays():
        arr[...] = scale * rng.standard_normal(arr.shape)
    return params


def zero_grads(params: DenoiserParams) -> DenoiserParams:
    """A zero array for every parameter, in the same layout."""
    return _zero_params(**params.arch())


@dataclass
class _BranchTrace:
    # activations only, per block its input hiddens[i] and gate halves:
    # backward reads the weights from params and builds the window matrix
    # again from hiddens[i]
    x_in: np.ndarray
    hiddens: list[np.ndarray] = field(default_factory=list)  # h0..hL
    tanh_a: list[np.ndarray] = field(default_factory=list)
    sig_b: list[np.ndarray] = field(default_factory=list)


@dataclass
class ForwardTrace:
    """Cached activations for one forward pass, consumed by backward():
    ``reference_forward`` records ``ref``, ``denoiser_forward`` the rest."""

    cond: np.ndarray | None = None
    ref: _BranchTrace | None = None
    den: _BranchTrace | None = None
    ref_hidden: list[np.ndarray] | None = None
    emb: np.ndarray | None = None

    @property
    def eps_shape(self) -> tuple[int, int]:
        """The shape of the traced output, which is that of the denoiser's input."""
        return self.den.x_in.shape


def _flatten_conv(w: np.ndarray) -> np.ndarray:
    """(C_out, C_in, K) weights as the (C_out, K*C_in) matrix that multiplies
    the windows; a view for the arrays ``init_params`` makes, a copy otherwise."""
    c_out, c_in, k = w.shape
    return w.transpose(0, 2, 1).reshape(c_out, k * c_in)


def _window_shifts(k: int, T: int):
    """Row block j of a K-tap 'same' window matrix over T frames holds the
    input shifted by j - (K-1)/2 frames, zero where that runs off either end.

    Yields (j, shift, lo, hi) for each block that holds any input frame:
    its columns lo..hi-1 hold input frames lo+shift..hi+shift-1.
    """
    radius = (k - 1) // 2
    for j in range(k):
        shift = j - radius
        lo, hi = max(0, -shift), min(T, T - shift)
        if lo < hi:
            yield j, shift, lo, hi


def _conv_windows(h: np.ndarray, k: int) -> np.ndarray:
    """The (K*C_in, T) sliding-window matrix of a K-tap 'same' convolution
    over ``h`` (C_in, T)."""
    c_in, T = h.shape
    windows = np.zeros((k * c_in, T))
    for j, shift, lo, hi in _window_shifts(k, T):
        windows[j * c_in : (j + 1) * c_in, lo:hi] = h[:, lo + shift : hi + shift]
    return windows


def _conv_time_backward(
    d_out: np.ndarray, windows: np.ndarray, flat_w: np.ndarray, d_w: np.ndarray, d_b: np.ndarray
) -> np.ndarray:
    """Add the weight and bias gradients into ``d_w`` (C_out, C_in, K) and
    ``d_b``; return the gradient of the convolution's input."""
    c_out, c_in, k = d_w.shape
    T = d_out.shape[1]
    d_w += (d_out @ windows.T).reshape(c_out, k, c_in).transpose(0, 2, 1)
    d_b += d_out.sum(axis=1)
    d_windows = flat_w.T @ d_out
    d_h = np.zeros((c_in, T))
    d_h_flat = d_h.reshape(-1)
    n = d_h.size
    # flattened, block j's entries lo..n-T+hi-1 land shifted by ``shift`` in
    # d_h as one contiguous add; its other columns would wrap into the next
    # or previous row, so they are zeroed first (d_windows is a temporary),
    # and as d_h starts at +0.0, adding those zeros changes no bit
    for j, shift, lo, hi in _window_shifts(k, T):
        rows = d_windows[j * c_in : (j + 1) * c_in]
        rows[:, :lo] = 0.0
        rows[:, hi:] = 0.0
        d_h_flat[lo + shift : n - T + hi + shift] += rows.reshape(-1)[lo : n - T + hi]
    return d_h


def _run_branch(
    branch: BranchParams,
    x: np.ndarray,
    bias: np.ndarray,
    injections: list[np.ndarray] | None,
    hidden: int,
) -> _BranchTrace:
    """Shared forward for both branches.

    ``bias`` (H x T, the step + condition projections) is added to both
    halves of every block's pre-activation; ``injections[i]``, when
    given, is added after the gate tanh(a) * sigmoid(b), before the
    residual add.
    """
    trace = _BranchTrace(x_in=x)
    h = branch.in_w @ x
    h += branch.in_b[:, None]
    trace.hiddens.append(h)
    for i, block in enumerate(branch.blocks):
        # the zero-padded 'same' convolution along time, as one matmul
        pre = _flatten_conv(block.conv_w) @ _conv_windows(h, block.conv_w.shape[2])
        pre += block.conv_b[:, None]
        halves = pre.reshape(2, hidden, -1)
        halves += bias
        ta = np.tanh(pre[:hidden], out=pre[:hidden])
        sb = np.negative(pre[hidden:], out=pre[hidden:])  # sigmoid(b) = 1 / (1 + exp(-b)), in place
        with np.errstate(over="ignore"):  # exp(-b) = inf makes sigmoid(b) exactly 0.0, its limit
            np.exp(sb, out=sb)
        sb += 1.0
        np.reciprocal(sb, out=sb)
        g = ta * sb
        trace.tanh_a.append(ta)
        trace.sig_b.append(sb)
        if injections is not None:
            g += injections[i]
        g += h  # the residual add; g is this block's own array
        h = g
        trace.hiddens.append(h)
    return trace


def reference_forward(
    params: DenoiserParams,
    ref_mel: np.ndarray,
    cond: np.ndarray,
    trace: ForwardTrace | None = None,
) -> list[np.ndarray]:
    """Run the reference branch on an F x T array; returns each block's output (H x T).

    Pass a ForwardTrace to record activations for a later backward pass.
    """
    x = np.asarray(ref_mel, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    if x.shape[0] != params.n_mels:
        raise ValueError("reference rows must equal n_mels")
    if cond.shape != (params.cond_dim, x.shape[1]):
        raise ValueError("cond must be (cond_dim, T) with T matching the reference")
    c = params.cond_w @ cond
    c += params.cond_b[:, None]
    branch_trace = _run_branch(params.ref, x, c, None, params.hidden)
    hiddens = branch_trace.hiddens[1:]
    if trace is not None:
        trace.ref = branch_trace
    return hiddens


def denoiser_forward(
    params: DenoiserParams,
    x_t: np.ndarray,
    t: int,
    cond: np.ndarray,
    ref_hidden: list[np.ndarray] | None,
    trace: ForwardTrace | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Predict the injected noise for x_t at step t (output includes the + x_t skip).

    ``ref_hidden`` is the reference branch output, or None for
    reference-disabled operation (treated as all-zero hidden states).
    Each block adds its zero-linear image of the matching reference
    hidden state after the gate, before the residual add.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    F, T = x_t.shape
    if F != params.n_mels:
        raise ValueError("x_t rows must equal n_mels")
    if cond.shape != (params.cond_dim, T):
        raise ValueError("cond must be (cond_dim, T) with T matching x_t")
    if ref_hidden is None:
        ref_hidden = [np.zeros((params.hidden, T)) for _ in range(params.depth)]
    if len(ref_hidden) != params.depth:
        raise ValueError("need one reference hidden state per block")
    for r in ref_hidden:
        if r.shape != (params.hidden, T):
            raise ValueError("reference hidden states must be (hidden, T)")
    if t < 1:
        raise ValueError("step must be >= 1")
    if trace is None:
        trace = ForwardTrace()
    if trace.ref is not None and trace.ref.x_in.shape[1] != T:
        raise ValueError("cond shape differs from the recorded reference pass")

    emb = step_embedding(t, params.step_dim)
    s = params.step_w @ emb + params.step_b
    bias = params.cond_w @ cond
    bias += params.cond_b[:, None]
    bias += s[:, None]
    injections = []
    for i in range(params.depth):
        injection = params.zero_w[i] @ ref_hidden[i]
        injection += params.zero_b[i][:, None]
        injections.append(injection)
    branch_trace = _run_branch(params.denoise, x_t, bias, injections, params.hidden)
    eps_hat = params.out_w @ branch_trace.hiddens[-1]
    eps_hat += params.out_b[:, None]
    eps_hat += x_t

    trace.cond = cond
    trace.den = branch_trace
    trace.ref_hidden = ref_hidden
    trace.emb = emb
    return eps_hat, trace


def _block_backward(
    d_h: np.ndarray, branch: _BranchTrace, i: int, block: BlockParams, grads: BlockParams, d_c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward through block i of either branch, mirroring ``_run_branch``;
    ``block`` holds that block's parameters.

    ``d_h`` is d loss / d the block's output.  Adds the conv gradients
    into ``grads`` and the gradient of the bias that both gate halves
    received into ``d_c``; returns d loss / d the block's input and that
    bias gradient.
    """
    hidden = d_h.shape[0]
    # d loss / d pre-activation: the tanh half over the sigmoid half
    d_pre = np.empty((2 * hidden, d_h.shape[1]))
    d_a, d_b = d_pre[:hidden], d_pre[hidden:]
    ta = branch.tanh_a[i]
    sb = branch.sig_b[i]
    slope = ta * ta
    np.subtract(1.0, slope, out=slope)  # 1 - tanh^2
    np.multiply(d_h, sb, out=d_a)
    d_a *= slope
    np.subtract(1.0, sb, out=slope)  # 1 - sigmoid
    np.multiply(d_h, ta, out=d_b)
    d_b *= sb
    d_b *= slope
    d_bias = d_a + d_b
    d_c += d_bias
    windows = _conv_windows(branch.hiddens[i], grads.conv_w.shape[2])
    d_in = _conv_time_backward(d_pre, windows, _flatten_conv(block.conv_w), grads.conv_w, grads.conv_b)
    d_in += d_h  # the residual add
    return d_in, d_bias


def backward(
    params: DenoiserParams,
    trace: ForwardTrace,
    loss_grad: np.ndarray,
    grads: DenoiserParams | None = None,
) -> DenoiserParams:
    """Exact gradients of a scalar loss w.r.t. every parameter.

    ``loss_grad`` is d loss / d eps_hat from the matching forward call.
    When the trace holds a recorded reference pass, gradients flow back
    through the reference branch via the zero-linear maps; otherwise the
    reference hidden states are treated as constants.

    The gradients are added into ``grads`` (a ``zero_grads`` result), which
    is returned; without one they are added to fresh zeros.  Each array
    receives exactly one addition per call, so summing a batch this way
    equals adding the items' fresh results in the same order.
    """
    if trace.den is None:
        raise ValueError("trace does not contain a denoiser forward pass")
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    if loss_grad.shape != trace.eps_shape:
        raise ValueError("loss gradient shape does not match the traced output")
    if grads is None:
        grads = zero_grads(params)
    den = trace.den
    H = params.hidden
    L = params.depth

    grads.out_w += loss_grad @ den.hiddens[-1].T
    grads.out_b += loss_grad.sum(axis=1)
    d_h = params.out_w.T @ loss_grad

    d_s = np.zeros(H)
    d_c = np.zeros((H, trace.cond.shape[1]))
    d_ref_hidden = [None] * L
    for i in range(L - 1, -1, -1):
        grads.zero_w[i] += d_h @ trace.ref_hidden[i].T
        grads.zero_b[i] += d_h.sum(axis=1)
        d_ref_hidden[i] = params.zero_w[i].T @ d_h
        d_h, d_bias = _block_backward(d_h, den, i, params.denoise.blocks[i], grads.denoise.blocks[i], d_c)
        d_s += d_bias.sum(axis=1)
    grads.denoise.in_w += d_h @ den.x_in.T
    grads.denoise.in_b += d_h.sum(axis=1)

    if trace.ref is not None:
        ref = trace.ref
        d_h = d_ref_hidden[L - 1]
        for i in range(L - 1, -1, -1):
            d_h, _ = _block_backward(d_h, ref, i, params.ref.blocks[i], grads.ref.blocks[i], d_c)
            if i > 0:
                d_h += d_ref_hidden[i - 1]
        grads.ref.in_w += d_h @ ref.x_in.T
        grads.ref.in_b += d_h.sum(axis=1)

    grads.step_w += np.outer(d_s, trace.emb)
    grads.step_b += d_s
    grads.cond_w += d_c @ trace.cond.T
    grads.cond_b += d_c.sum(axis=1)
    return grads


def grad_check(
    params: DenoiserParams,
    x_t: np.ndarray,
    t: int,
    cond: np.ndarray,
    ref_mel: np.ndarray,
    target: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The probed scalar loss is mean((eps_hat - target)^2) over the full
    pipeline (reference branch included).  Relative error per parameter
    is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """

    def forward(trace: ForwardTrace | None = None) -> np.ndarray:
        hiddens = reference_forward(params, ref_mel, cond, trace=trace)
        return denoiser_forward(params, x_t, t, cond, hiddens, trace=trace)[0]

    def loss_of() -> float:
        diff = forward() - target
        return float((diff * diff).mean())

    trace = ForwardTrace()
    eps_hat = forward(trace)
    loss_grad = 2.0 * (eps_hat - target) / eps_hat.size
    grads = backward(params, trace, loss_grad)

    worst = 0.0
    for (_, arr), (_, grad) in zip(params.named_arrays(), grads.named_arrays()):
        for j in np.ndindex(arr.shape):
            orig = arr[j]
            arr[j] = orig + h
            up = loss_of()
            arr[j] = orig - h
            down = loss_of()
            arr[j] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = grad[j]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


# --- RDCK checkpoint format ----------------------------------------------
#
#   magic "RDCK" | u32 version=3 | u32 header_len | header JSON (utf-8) |
#   DenoiserParams.flat as float64 little-endian
#
# The payload is the flat vector itself: every array in its stored shape
# from _shapes, in named_arrays order, so conv weights are (2H, K, H) in C
# order.  Version 2 had the same values with each conv weight as a
# (2H, H, K) C-order block, and version 1 had that layout but was trained
# for a network without the output skip; neither is read.

CHECKPOINT_MAGIC = b"RDCK"
CHECKPOINT_VERSION = 3
MAX_HEADER_BYTES = 1 << 20  # a real header is about 1 kB


def save_checkpoint(path, params: DenoiserParams, header: dict) -> None:
    """Write a JSON header describing how to use the parameters, then
    ``params.flat`` as the payload, in one write."""
    meta = dict(header)
    meta["arch"] = params.arch()
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8"))


def _read_exact(fh, n: int, what: str) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated checkpoint: {what} needs {n} bytes, found {len(raw)}")
    return raw


def load_checkpoint(path) -> tuple[DenoiserParams, dict]:
    """Read an RDCK file written by ``save_checkpoint``: the parameter
    payload goes with one ``readinto`` into the flat vector of fresh
    parameters, whose arrays are views into it.

    Any malformed file raises ValueError: a wrong magic or a version
    other than CHECKPOINT_VERSION (versions 1 and 2 included), a
    file that ends inside the fixed fields or the header, a header
    longer than MAX_HEADER_BYTES or not a JSON object, an arch that is
    not exactly the six ARCH_KEYS holding integers, sizes ``_shapes``
    rejects, parameter bytes, trailing ones included, that do not add
    up to what the arch needs, or a parameter that is NaN or infinite.
    The size is checked before any array is allocated.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        version, header_len = struct.unpack("<II", _read_exact(fh, 8, "version and header length"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
            )
        if header_len > MAX_HEADER_BYTES:
            raise ValueError(f"checkpoint header of {header_len} bytes exceeds {MAX_HEADER_BYTES}")
        header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("checkpoint header must be a JSON object")
        arch = header.get("arch")
        if not isinstance(arch, dict) or set(arch) != set(ARCH_KEYS):
            raise ValueError(f"checkpoint arch must have exactly the keys {', '.join(ARCH_KEYS)}")
        for key in ARCH_KEYS:
            if type(arch[key]) is not int:
                raise ValueError(f"checkpoint arch {key} must be an integer, got {arch[key]!r}")
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        needed = 8 * sum(math.prod(shape) for shape in _shapes(**arch))
        if remaining != needed:
            kind = "truncated" if remaining < needed else "trailing bytes in"
            raise ValueError(f"{kind} checkpoint: {remaining} parameter bytes, its arch needs {needed}")
        params = _zero_params(**arch)
        if fh.readinto(params.flat) != needed:
            raise ValueError(f"truncated checkpoint: its arch needs {needed} parameter bytes")
    if sys.byteorder != "little":
        params.flat.byteswap(inplace=True)
    if not np.isfinite(params.flat).all():
        raise ValueError(f"checkpoint {path} holds a NaN or infinite parameter value")
    return params, header
