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
gradient does not reach any.  Forward passes record the
activations needed for an exact manual backward pass; ``grad_check``
verifies the analytic gradients with central finite differences.

Everything runs in float64 with explicit parameter arrays (no autograd)
so gradient checks are tight and runs are bit-reproducible.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .dsp import MelSpectrogram

GATE_MODES = ("gated", "linear")
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

    def named_arrays(self):
        """(name, array) pairs in fixed declaration order.

        This order defines the checkpoint block layout and the gradient
        dictionary keys; do not reorder.
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
    if kernel % 2 == 0 or kernel < 1:
        raise ValueError("kernel must be a positive odd integer")
    rng = np.random.default_rng(seed)

    def _branch() -> BranchParams:
        in_w = rng.standard_normal((hidden, n_mels)) / np.sqrt(n_mels)
        in_b = np.zeros(hidden)
        blocks = []
        for _ in range(depth):
            conv_w = rng.standard_normal((2 * hidden, hidden, kernel)) / np.sqrt(hidden * kernel)
            conv_b = np.zeros(2 * hidden)
            blocks.append(BlockParams(conv_w=conv_w, conv_b=conv_b))
        return BranchParams(in_w=in_w, in_b=in_b, blocks=blocks)

    denoise = _branch()
    ref = BranchParams(
        in_w=denoise.in_w.copy(),
        in_b=denoise.in_b.copy(),
        blocks=[BlockParams(b.conv_w.copy(), b.conv_b.copy()) for b in denoise.blocks],
    )
    zero_w = [np.zeros((hidden, hidden)) for _ in range(depth)]
    zero_b = [np.zeros(hidden) for _ in range(depth)]
    out_w = rng.standard_normal((n_mels, hidden)) / np.sqrt(hidden)
    out_b = np.zeros(n_mels)
    step_w = rng.standard_normal((hidden, step_dim)) / np.sqrt(step_dim)
    step_b = np.zeros(hidden)
    cond_w = rng.standard_normal((hidden, cond_dim)) / np.sqrt(cond_dim)
    cond_b = np.zeros(hidden)
    return DenoiserParams(
        n_mels=n_mels,
        hidden=hidden,
        depth=depth,
        cond_dim=cond_dim,
        step_dim=step_dim,
        kernel=kernel,
        denoise=denoise,
        ref=ref,
        zero_w=zero_w,
        zero_b=zero_b,
        out_w=out_w,
        out_b=out_b,
        step_w=step_w,
        step_b=step_b,
        cond_w=cond_w,
        cond_b=cond_b,
    )


def randomize_params(params: DenoiserParams, seed: int, scale: float = 0.3) -> DenoiserParams:
    """Fill every array (zero-linears included) with random values; for tests."""
    rng = np.random.default_rng(seed)
    for _, arr in params.named_arrays():
        arr[...] = scale * rng.standard_normal(arr.shape)
    return params


def zero_grads(params: DenoiserParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.named_arrays()}


@dataclass
class _BranchTrace:
    x_in: np.ndarray
    hiddens: list[np.ndarray] = field(default_factory=list)  # h0..hL
    windows: list[np.ndarray] = field(default_factory=list)  # conv input windows
    tanh_a: list[np.ndarray] = field(default_factory=list)
    sig_b: list[np.ndarray] = field(default_factory=list)


@dataclass
class ForwardTrace:
    """Cached activations for one forward pass, consumed by backward()."""

    gate: str = "gated"
    cond: np.ndarray | None = None
    ref: _BranchTrace | None = None
    den: _BranchTrace | None = None
    ref_hidden: list[np.ndarray] | None = None
    t: int | None = None
    emb: np.ndarray | None = None
    eps_shape: tuple[int, int] | None = None


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, MelSpectrogram):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _conv_time(
    h: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded 'same' convolution along the time axis.

    Evaluated as one matmul over a (K*C_in, T) sliding-window matrix;
    the window matrix is returned for reuse in the backward pass.
    """
    c_in, T = h.shape
    k = w.shape[2]
    radius = (k - 1) // 2
    padded = np.zeros((c_in, T + 2 * radius))
    padded[:, radius : radius + T] = h
    s_row, s_col = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded, shape=(k, c_in, T), strides=(s_col, s_row, s_col)
    )
    windows = view.reshape(k * c_in, T)
    flat_w = w.transpose(0, 2, 1).reshape(w.shape[0], k * c_in)
    out = flat_w @ windows
    out += b[:, None]
    return out, windows


def _conv_time_backward(
    d_out: np.ndarray, windows: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c_out, c_in, k = w.shape
    T = d_out.shape[1]
    radius = (k - 1) // 2
    flat_w = w.transpose(0, 2, 1).reshape(c_out, k * c_in)
    d_flat_w = d_out @ windows.T
    d_w = d_flat_w.reshape(c_out, k, c_in).transpose(0, 2, 1).copy()
    d_windows = flat_w.T @ d_out
    d_padded = np.zeros((c_in, T + 2 * radius))
    for j in range(k):
        d_padded[:, j : j + T] += d_windows[j * c_in : (j + 1) * c_in]
    d_b = d_out.sum(axis=1)
    d_h = d_padded[:, radius : radius + T]
    return d_w, d_b, d_h


def _sigmoid(x: np.ndarray) -> np.ndarray:
    from scipy.special import expit

    return expit(x)


def _gate_forward(pre: np.ndarray, hidden: int, gate: str):
    a = pre[:hidden]
    b = pre[hidden:]
    if gate == "gated":
        ta = np.tanh(a)
        sb = _sigmoid(b)
        return ta * sb, ta, sb
    return a + b, a, b  # linear test mode


def _run_branch(
    branch: BranchParams,
    x: np.ndarray,
    bias_terms: list[np.ndarray | None],
    injections: list[np.ndarray] | None,
    hidden: int,
    gate: str,
) -> _BranchTrace:
    """Shared forward for both branches.

    ``bias_terms[i]`` is added to both halves of block i's pre-activation
    (step + condition projections); ``injections[i]``, when given, is
    added after the gate, before the residual add.
    """
    trace = _BranchTrace(x_in=x)
    h = branch.in_w @ x + branch.in_b[:, None]
    trace.hiddens.append(h)
    for i, block in enumerate(branch.blocks):
        pre, windows = _conv_time(h, block.conv_w, block.conv_b)
        extra = bias_terms[i]
        if extra is not None:
            pre[:hidden] += extra
            pre[hidden:] += extra
        g, ta, sb = _gate_forward(pre, hidden, gate)
        trace.windows.append(windows)
        trace.tanh_a.append(ta)
        trace.sig_b.append(sb)
        if injections is not None:
            g = g + injections[i]
        h = h + g
        trace.hiddens.append(h)
    return trace


def reference_forward(
    params: DenoiserParams,
    ref_mel,
    cond: np.ndarray,
    trace: ForwardTrace | None = None,
    gate: str = "gated",
) -> list[np.ndarray]:
    """Run the reference branch; returns each block's output (H x T).

    Pass a ForwardTrace to record activations for a later backward pass.
    """
    x = _as_matrix(ref_mel)
    cond = np.asarray(cond, dtype=np.float64)
    _validate_gate(gate)
    if x.shape[0] != params.n_mels:
        raise ValueError("reference rows must equal n_mels")
    if cond.shape != (params.cond_dim, x.shape[1]):
        raise ValueError("cond must be (cond_dim, T) with T matching the reference")
    c = params.cond_w @ cond + params.cond_b[:, None]
    branch_trace = _run_branch(
        params.ref, x, [c] * params.depth, None, params.hidden, gate
    )
    hiddens = branch_trace.hiddens[1:]
    if trace is not None:
        trace.gate = gate
        trace.cond = cond
        trace.ref = branch_trace
        trace.ref_hidden = hiddens
    return hiddens


def denoiser_forward(
    params: DenoiserParams,
    x_t: np.ndarray,
    t: int,
    cond: np.ndarray,
    ref_hidden: list[np.ndarray] | None,
    trace: ForwardTrace | None = None,
    gate: str = "gated",
) -> tuple[np.ndarray, ForwardTrace]:
    """Predict the injected noise for x_t at step t (output includes the + x_t skip).

    ``ref_hidden`` is the reference branch output, or None for
    reference-disabled operation (treated as all-zero hidden states).
    Each block adds its zero-linear image of the matching reference
    hidden state after the gate, before the residual add.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    _validate_gate(gate)
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
        trace = ForwardTrace(gate=gate)
    elif trace.gate != gate:
        raise ValueError("gate mode differs from the recorded reference pass")
    if trace.cond is not None and trace.cond.shape != cond.shape:
        raise ValueError("cond shape differs from the recorded reference pass")

    emb = step_embedding(t, params.step_dim)
    s = params.step_w @ emb + params.step_b
    c = params.cond_w @ cond + params.cond_b[:, None]
    bias = s[:, None] + c
    injections = [
        params.zero_w[i] @ ref_hidden[i] + params.zero_b[i][:, None]
        for i in range(params.depth)
    ]
    branch_trace = _run_branch(
        params.denoise, x_t, [bias] * params.depth, injections, params.hidden, gate
    )
    eps_hat = params.out_w @ branch_trace.hiddens[-1] + params.out_b[:, None] + x_t

    trace.cond = cond
    trace.den = branch_trace
    trace.ref_hidden = ref_hidden
    trace.t = t
    trace.emb = emb
    trace.eps_shape = (F, T)
    return eps_hat, trace


def _validate_gate(gate: str) -> None:
    if gate not in GATE_MODES:
        raise ValueError(f"gate must be one of {GATE_MODES}")


def _gate_backward(d_g: np.ndarray, trace: _BranchTrace, i: int, gate: str):
    if gate == "gated":
        ta = trace.tanh_a[i]
        sb = trace.sig_b[i]
        d_a = d_g * sb * (1.0 - ta * ta)
        d_b = d_g * ta * sb * (1.0 - sb)
    else:
        d_a = d_g
        d_b = d_g.copy()
    return d_a, d_b


def backward(
    params: DenoiserParams, trace: ForwardTrace, loss_grad: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss w.r.t. every parameter.

    ``loss_grad`` is d loss / d eps_hat from the matching forward call.
    When the trace holds a recorded reference pass, gradients flow back
    through the reference branch via the zero-linear maps; otherwise the
    reference hidden states are treated as constants.
    """
    if trace.den is None or trace.eps_shape is None:
        raise ValueError("trace does not contain a denoiser forward pass")
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    if loss_grad.shape != trace.eps_shape:
        raise ValueError("loss gradient shape does not match the traced output")
    grads = zero_grads(params)
    gate = trace.gate
    den = trace.den
    H = params.hidden
    L = params.depth

    grads["out.w"][...] = loss_grad @ den.hiddens[-1].T
    grads["out.b"][...] = loss_grad.sum(axis=1)
    d_h = params.out_w.T @ loss_grad

    d_s = np.zeros(H)
    d_c = np.zeros((H, trace.cond.shape[1]))
    d_ref_hidden = [None] * L
    for i in range(L - 1, -1, -1):
        d_g = d_h
        grads[f"zero{i}.w"][...] = d_g @ trace.ref_hidden[i].T
        grads[f"zero{i}.b"][...] = d_g.sum(axis=1)
        d_ref_hidden[i] = params.zero_w[i].T @ d_g
        d_a, d_b = _gate_backward(d_g, den, i, gate)
        both = d_a + d_b
        d_s += both.sum(axis=1)
        d_c += both
        d_pre = np.concatenate([d_a, d_b], axis=0)
        block = params.denoise.blocks[i]
        d_w, d_bias, d_h_conv = _conv_time_backward(d_pre, den.windows[i], block.conv_w)
        grads[f"denoise.block{i}.conv_w"][...] = d_w
        grads[f"denoise.block{i}.conv_b"][...] = d_bias
        d_h = d_h + d_h_conv
    grads["denoise.in_w"][...] = d_h @ den.x_in.T
    grads["denoise.in_b"][...] = d_h.sum(axis=1)

    if trace.ref is not None:
        ref = trace.ref
        d_hr = d_ref_hidden[L - 1]
        for i in range(L - 1, -1, -1):
            d_g = d_hr
            d_a, d_b = _gate_backward(d_g, ref, i, gate)
            d_c += d_a + d_b
            d_pre = np.concatenate([d_a, d_b], axis=0)
            block = params.ref.blocks[i]
            d_w, d_bias, d_hr_conv = _conv_time_backward(d_pre, ref.windows[i], block.conv_w)
            grads[f"ref.block{i}.conv_w"][...] = d_w
            grads[f"ref.block{i}.conv_b"][...] = d_bias
            d_hr = d_hr + d_hr_conv
            if i > 0:
                d_hr = d_hr + d_ref_hidden[i - 1]
        grads["ref.in_w"][...] = d_hr @ ref.x_in.T
        grads["ref.in_b"][...] = d_hr.sum(axis=1)

    grads["step.w"][...] = np.outer(d_s, trace.emb)
    grads["step.b"][...] = d_s
    grads["cond.w"][...] = d_c @ trace.cond.T
    grads["cond.b"][...] = d_c.sum(axis=1)
    return grads


def grad_check(
    params: DenoiserParams,
    x_t: np.ndarray,
    t: int,
    cond: np.ndarray,
    ref_mel: np.ndarray,
    target: np.ndarray,
    h: float = 1e-5,
    gate: str = "gated",
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The probed scalar loss is mean((eps_hat - target)^2) over the full
    pipeline (reference branch included).  Relative error per parameter
    is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """

    def loss_of() -> float:
        hiddens = reference_forward(params, ref_mel, cond, gate=gate)
        eps_hat, _ = denoiser_forward(params, x_t, t, cond, hiddens, gate=gate)
        diff = eps_hat - target
        return float((diff * diff).mean())

    trace = ForwardTrace()
    hiddens = reference_forward(params, ref_mel, cond, trace=trace, gate=gate)
    eps_hat, trace = denoiser_forward(params, x_t, t, cond, hiddens, trace=trace, gate=gate)
    loss_grad = 2.0 * (eps_hat - target) / eps_hat.size
    grads = backward(params, trace, loss_grad)

    worst = 0.0
    for name, arr in params.named_arrays():
        flat = arr.reshape(-1)
        g_flat = grads[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_of()
            flat[j] = orig - h
            down = loss_of()
            flat[j] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(g_flat[j]), abs(numeric), 1e-8)
            worst = max(worst, abs(g_flat[j] - numeric) / denom)
    return worst


# --- RDCK checkpoint format ----------------------------------------------
#
#   magic "RDCK" | u32 version=2 | u32 header_len | header JSON (utf-8) |
#   float64 little-endian parameter blocks in named_arrays order
#
# Version 2 added the identity skip to the output; version-1 parameters
# have the same layout but were trained for a network without it.

CHECKPOINT_MAGIC = b"RDCK"
CHECKPOINT_VERSION = 2
MAX_HEADER_BYTES = 1 << 20  # a real header is about 1 kB


def save_checkpoint(path, params: DenoiserParams, header: dict) -> None:
    """Write parameters plus a JSON header describing how to use them."""
    meta = dict(header)
    meta["arch"] = params.arch()
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for _, arr in params.named_arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated checkpoint: {what} needs {n} bytes, found {len(raw)}")
    return raw


def _parse_arch(arch) -> dict:
    """The architecture sizes of a checkpoint header, as positive ints."""
    if not isinstance(arch, dict) or set(arch) != set(ARCH_KEYS):
        raise ValueError(f"checkpoint arch must have exactly the keys {', '.join(ARCH_KEYS)}")
    for key in ARCH_KEYS:
        value = arch[key]
        if type(value) is not int or value < 1:
            raise ValueError(f"checkpoint arch {key} must be a positive integer, got {value!r}")
    return arch


def _n_parameters(n_mels, hidden, depth, cond_dim, step_dim, kernel) -> int:
    """Parameter count of ``init_params`` with these sizes, without allocating."""
    branch = hidden * n_mels + hidden + depth * (2 * hidden * hidden * kernel + 2 * hidden)
    zero = depth * (hidden * hidden + hidden)
    return 2 * branch + zero + n_mels * (hidden + 1) + (step_dim + cond_dim + 2) * hidden


def load_checkpoint(path) -> tuple[DenoiserParams, dict]:
    """Read an RDCK file written by ``save_checkpoint``.

    Any malformed file raises ValueError: a wrong magic or version, a
    file that ends inside the fixed fields or the header, a header
    longer than MAX_HEADER_BYTES or not a JSON object, an arch that is
    not six positive integers, or parameter bytes, trailing ones
    included, that do not add up to what the arch needs.  The size is
    checked before any array is allocated.
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
        arch = _parse_arch(header.get("arch"))
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        needed = 8 * _n_parameters(**arch)
        if remaining != needed:
            kind = "truncated" if remaining < needed else "trailing bytes in"
            raise ValueError(f"{kind} checkpoint: {remaining} parameter bytes, its arch needs {needed}")
        params = init_params(seed=0, **arch)
        for _, arr in params.named_arrays():
            arr[...] = np.frombuffer(fh.read(8 * arr.size), dtype="<f8").reshape(arr.shape)
    return params, header
