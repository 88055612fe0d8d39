"""Work split between this process and one forked worker.

Two forms share the worker: ``interleave_parts`` hands it every other block
of an input (``embed``, ``gen-data``), and ``train_steps`` runs each training
step as two fixed half-batch shards, shard 1 in a worker that keeps its own
copy of the parameters in lockstep (pretraining, SFT; contrastive tuning
takes its steps whole, as one shard). The layout never depends on the worker
count, so neither do the results: one process runs the same blocks and
shards in turn.

While a worker lives both processes run numpy's OpenBLAS at one thread; the
worker freezes the collector, writes no file and no stdout, and leaves by
``os._exit``. Any exception in this process kills and reaps it, so no worker
outlives its caller. Built on ``os.fork``, pipes and, for gradients, an
anonymous shared ``mmap``; not on ``multiprocessing``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import gc
import itertools
import math
import mmap
import os
import pickle
import signal
import warnings
from typing import Callable, Dict, Iterator, List, NoReturn, Optional, Tuple

import numpy as np

from .numerics import Adam, GradTape, Tensor

__all__ = ["workers", "interleave_parts", "shard_slice", "train_steps"]


@functools.cache
def _openblas_threads() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None where numpy does not carry them (another BLAS, another build)."""
    try:
        from numpy._core import _multiarray_umath
        # dlsym on the extension's handle also searches the libraries it links.
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


def workers() -> int:
    """Processes that the work is split between: one per allowed CPU, at
    most 2, where numpy's OpenBLAS can be pinned to one thread; else 1.
    Two processes at OpenBLAS's default threads each ran 6x slower than one."""
    if _openblas_threads() is None or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(2, len(os.sched_getaffinity(0)))


def _serve(items: Callable[[], Iterator], sink) -> NoReturn:
    """The forked worker's whole life: pickle each of ``items()`` into
    ``sink``, then an end or the first exception's text; then exit, running
    none of the cleanup that the fork copied from the parent."""
    code = 1
    try:
        # Garbage made before the fork is the parent's to collect: its finalizers
        # (an unflushed file's, say) must not run here as well.
        gc.freeze()
        try:
            for item in items():
                sink.write(pickle.dumps(("item", item)))
                sink.flush()
            last = ("end", None)
        except Exception as exc:
            last = ("error", str(exc))
        sink.write(pickle.dumps(last))
        sink.flush()
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _worker(items: Callable[..., Iterator], what: str):
    """Fork a worker that serves ``items(inbox)``, where ``inbox`` is a pipe
    from this process; yield (its items as they arrive, the pipe's write end,
    unbuffered, so that a write to a dead worker fails where it is made and
    leaves nothing for the close to flush). An exception in the worker comes
    back as a ``RuntimeError`` with its text, and so does its death, as
    "... before its last ``what``"."""
    get_threads, set_threads = _openblas_threads()
    threads = get_threads()
    set_threads(1)
    pid, reaped = None, False

    def received(pipe) -> Iterator:
        nonlocal reaped
        while True:
            try:
                kind, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # a record cut short
                status = os.waitpid(pid, 0)[1]
                reaped = True
                raise RuntimeError(f"the worker process exited with status "
                                   f"{os.waitstatus_to_exitcode(status)} before its "
                                   f"last {what}") from None
            if kind == "end":
                return
            if kind == "error":
                raise RuntimeError(value)
            yield value

    try:
        up_read, up_write = os.pipe()
        down_read, down_write = os.pipe()
        with open(up_read, "rb") as up, open(up_write, "wb") as sink, \
                open(down_read, "rb") as inbox, open(down_write, "wb", buffering=0) as outbox:
            with warnings.catch_warnings():
                # Python 3.12 on warns that a fork in a process with threads may
                # deadlock. The only other threads are OpenBLAS's, idle at one
                # thread, and OpenBLAS's atfork handler stops them before a fork.
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                # Ends left open here would keep a write to a full pipe blocked
                # for ever once the parent is gone, or a read waiting.
                up.close()
                outbox.close()
                _serve(lambda: items(inbox), sink)
            sink.close()
            inbox.close()
            yield received(up), outbox
    finally:
        if pid and not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        set_threads(threads)


def interleave_parts(part: Callable[[int, int], Iterator], fork: bool) -> Iterator:
    """The items of ``part(0, n)``, ``part(1, n)``, ... taken in turn, one
    each, until one part runs out. ``part(w, n)`` yields the items of blocks
    w, w + n, w + 2n, ... of an input, so they come in input order.

    Without ``fork`` n is 1 and the one part runs in this process. With it
    n is 2: part 1 runs in a forked worker that pickles its items through a
    pipe, whose capacity bounds how far it runs ahead. Closing the iterator
    kills and reaps the worker."""
    if not fork:
        yield from part(0, 1)
        return
    with _worker(lambda inbox: part(1, 2), "block") as (received, _):
        done = object()
        for source in itertools.cycle((part(0, 2), received)):
            item = next(source, done)
            if item is done:
                return
            yield item


def shard_slice(n: int, shard: int) -> slice:
    """Shard 0 or 1 of a batch of ``n``: the first ceil(n / 2) items, or the
    rest. The same on every machine."""
    half = (n + 1) // 2
    return slice(0, half) if shard == 0 else slice(half, n)


# (step, shard, leaves) -> (the shard's weighted loss on its tape, its hits)
ShardLoss = Callable[[int, int, Dict[str, Tensor]], Tuple[Tensor, int]]
# A shard's (loss value, hits, gradient per parameter name).
Shard = Tuple[float, int, Dict[str, Optional[np.ndarray]]]


def _shard(opt: Adam, shard_loss: ShardLoss, step: int, shard: int) -> Shard:
    """One shard of one step, on its own tape over its own leaf tensors that
    wrap the parameter arrays; a non-finite loss is not backpropagated."""
    leaves = {name: Tensor(p.data, requires_grad=True) for name, p in opt.params.items()}
    with GradTape() as tape:
        loss, hits = shard_loss(step, shard, leaves)
    value = float(loss.data)
    if math.isfinite(value):
        tape.backward(loss)
    return value, hits, {name: t.grad for name, t in leaves.items()}


def _apply(opt: Adam, shards: List[Shard]) -> Tuple[float, int]:
    """Step ``opt`` on the shards' gradients summed in shard order; return
    the summed loss and hits. A non-finite loss raises before any parameter
    changes."""
    loss = sum(value for value, _, _ in shards)
    if not math.isfinite(loss):
        raise RuntimeError(f"non-finite loss at step {opt.t}")
    for name, p in opt.params.items():
        grads = [g[name] for _, _, g in shards if g.get(name) is not None]
        p.grad = functools.reduce(np.add, grads) if grads else None
    opt.step()
    opt.zero_grad()
    return loss, sum(hits for _, hits, _ in shards)


class _Board:
    """Memory that the two processes share, through which each passes its
    shard's gradients: one slot per (step parity, shard), holding a gradient
    per parameter, so that the pipe carries only a shard's loss, its hits and
    the parameters it left without a gradient. A process writes its slot of
    step s + 2 only after the other has posted step s + 1, and so has read
    step s. Pickling the gradients through the pipe instead made a default
    pretrain step about 10% slower."""

    def __init__(self, params: Dict[str, Tensor]):
        size = sum(p.data.nbytes for p in params.values())
        mem = mmap.mmap(-1, 4 * size)  # anonymous, so shared with a fork
        self.slots, pos = [], 0
        for _ in range(4):
            slot = {}
            for name, p in params.items():
                slot[name] = np.frombuffer(mem, p.data.dtype, p.data.size, pos).reshape(p.data.shape)
                pos += p.data.nbytes
            self.slots.append(slot)

    def post(self, step: int, shard: int, done: Shard) -> Tuple[float, int, List[str]]:
        """Copy a shard's gradients into its slot; return what the pipe carries:
        its loss, its hits and the parameters that got no gradient."""
        value, hits, grads = done
        slot = self.slots[2 * (step % 2) + shard]
        for name, g in grads.items():
            if g is not None:
                slot[name][...] = g
        return value, hits, [name for name in slot if grads.get(name) is None]

    def read(self, step: int, shard: int, note: Tuple[float, int, List[str]]) -> Shard:
        """The shard that ``post`` made ``note`` for."""
        value, hits, missing = note
        slot = self.slots[2 * (step % 2) + shard]
        return value, hits, {name: g for name, g in slot.items() if name not in missing}


def train_steps(opt: Adam, n_steps: int, shard_loss: ShardLoss, shards: int = 2,
                ) -> List[Tuple[float, int]]:
    """Take ``n_steps`` steps of ``opt``; return each step's (loss, hits).

    Step s runs ``shard_loss(s, k, leaves)`` for each shard k < ``shards``:
    shard k's loss, weighted by its share of the batch, and a count of hits.
    The step's loss and hits are the shards' sums, and its gradient is their
    gradients summed in shard order, g0 + g1, for Adam.

    With 2 shards and ``workers() == 2``, shard 1 runs in a worker forked
    once here, in lockstep: per step each process hands the other its
    shard's (loss, hits, gradients) through a ``_Board``, and both take the
    same Adam step on their own copies of the parameters, which so stay the
    same bits. Otherwise the shards run in turn here.
    """
    if shards != 2 or workers() != 2:
        return [_apply(opt, [_shard(opt, shard_loss, step, k) for k in range(shards)])
                for step in range(n_steps)]
    board = _Board(opt.params)

    def worker_side(inbox) -> Iterator:
        for step in range(n_steps):
            mine = _shard(opt, shard_loss, step, 1)
            yield board.post(step, 1, mine)
            _apply(opt, [board.read(step, 0, pickle.load(inbox)), mine])

    out = []
    with _worker(worker_side, "step") as (received, outbox):
        for step in range(n_steps):
            mine = _shard(opt, shard_loss, step, 0)
            try:
                outbox.write(pickle.dumps(board.post(step, 0, mine)))
            except BrokenPipeError:  # the worker is gone: its record says how
                for _ in received:
                    pass
                raise
            out.append(_apply(opt, [mine, board.read(step, 1, next(received))]))
    return out
