"""Work split between this process and one forked worker or helper thread.

Three forms share the split: ``interleave_parts`` hands a forked worker
every other block of an input (``embed``, ``gen-data``); ``train_steps``
runs each training step as two fixed half-batch shards, shard 1 in a worker
that serves gradients on parameters shared with this process, which alone
steps the optimizer (pretraining, SFT; contrastive tuning takes its steps
whole, as one shard); and ``map_halves`` hands a helper thread the second
half of each batch (``score``). The layout never depends on the worker
count, so neither do the results: one process runs the same blocks, shards
and halves in turn.

Importing this module sets numpy's OpenBLAS to one thread for the whole
process, and a fork inherits it; there is no option. A GEMM's bits depend
on its thread count, so at OpenBLAS's default, one thread per allowed CPU,
a result would depend on the machine: a ``finetune-cl`` checkpoint did. Two
processes at the default count also each ran 6x slower than one. The cost
is that ``finetune-cl``, which runs whole in this process, uses one core.

The worker freezes the collector, writes no file and no stdout, and leaves
by ``os._exit``. Any exception in this process kills and reaps it, so no
worker outlives its caller. Built on ``os.fork``, pipes and, for parameters
and gradients, anonymous shared ``mmap``s; not on ``multiprocessing``.
``score`` takes a thread, not a fork: it shares the one heap, whose freed
pages a forked parent would copy page by page.
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
from typing import Callable, Dict, Iterable, Iterator, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .numerics import Adam, GradTape, Tensor

__all__ = ["workers", "interleave_parts", "shard_slice", "map_halves", "train_steps"]


def _one_openblas_thread() -> bool:
    """Set numpy's bundled OpenBLAS to one thread; False, doing nothing,
    where numpy does not carry its setter (another BLAS, another build)."""
    try:
        from numpy._core import _multiarray_umath
        # dlsym on the extension's handle also searches the libraries it links.
        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return False
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    set_threads(1)
    return True


ONE_BLAS_THREAD = _one_openblas_thread()


def workers() -> int:
    """Processes that the work is split between: one per allowed CPU, at
    most 2, where numpy's OpenBLAS runs at one thread; else 1."""
    if not ONE_BLAS_THREAD or not hasattr(os, "sched_getaffinity"):
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


def interleave_parts(part: Callable[[int, int], Iterator], splits: bool) -> Iterator:
    """The items of ``part(0, n)``, ``part(1, n)``, ... taken in turn, one
    each, until one part runs out. ``part(w, n)`` yields the items of blocks
    w, w + n, w + 2n, ... of an input, so they come in input order.

    Where the input ``splits`` and ``workers() == 2``, n is 2: part 1 runs in
    a forked worker that pickles its items through a pipe, whose capacity
    bounds how far it runs ahead. Closing the iterator kills and reaps the
    worker. Otherwise n is 1 and the one part runs in this process."""
    if not splits or workers() != 2:
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


def map_halves(fn: Callable[[Sequence], list], batches: Iterable[Sequence]) -> Iterator[list]:
    """``fn(batch)`` for each batch, taken in this thread, in order.

    Where ``workers() == 2`` it is ``fn(shard 0) + fn(shard 1)``
    (``shard_slice``): a helper thread, one for the whole iteration, runs
    shard 1 while this thread runs shard 0, and this thread joins it before
    it takes the next batch, so ``fn`` must give each item what it gives it
    in any batch. A batch of one runs here whole. An exception in either
    half ends the iteration once both halves are done, the first half's
    where both raise; the thread is joined before the iterator ends or is
    closed."""
    if workers() != 2:
        yield from map(fn, batches)
        return
    # Imported here: it loads `logging`, about 0.5 MB that only this path needs.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as helper:
        for batch in batches:
            if len(batch) < 2:
                yield fn(batch)
                continue
            rest = helper.submit(fn, batch[shard_slice(len(batch), 1)])
            try:
                first = fn(batch[shard_slice(len(batch), 0)])
            except BaseException:
                rest.exception()  # waits for the other half; this half's error is raised
                raise
            yield first + rest.result()


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


def _shared(arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Zeroed arrays with the names, shapes and dtypes of ``arrays``, in one
    anonymous ``mmap``, which a fork shares rather than copies."""
    mem = mmap.mmap(-1, sum(a.nbytes for a in arrays.values()))
    out, pos = {}, 0
    for name, a in arrays.items():
        out[name] = np.frombuffer(mem, a.dtype, a.size, pos).reshape(a.shape)
        pos += a.nbytes
    return out


def train_steps(opt: Adam, n_steps: int, shard_loss: ShardLoss, shards: int = 2,
                ) -> List[Tuple[float, int]]:
    """Take ``n_steps`` steps of ``opt``; return each step's (loss, hits).

    Step s runs ``shard_loss(s, k, leaves)`` for each shard k < ``shards``:
    shard k's loss, weighted by its share of the batch, and a count of hits.
    The step's loss and hits are the shards' sums, and its gradient is their
    gradients summed in shard order, g0 + g1, for Adam.

    With 2 shards and ``workers() == 2``, shard 1 runs in a worker forked
    once here that only computes gradients, on parameters moved into memory
    that both processes share. Per step this process sends the step number
    and runs shard 0; the worker runs shard 1, fills a shared gradient slot
    and sends back its loss, its hits and the parameters it left without a
    gradient. This process alone then steps ``opt``, before it sends the
    next step number. Otherwise the shards run in turn here.
    """
    if shards != 2 or workers() != 2:
        return [_apply(opt, [_shard(opt, shard_loss, step, k) for k in range(shards)])
                for step in range(n_steps)]
    arrays = {name: p.data for name, p in opt.params.items()}
    shared, slot = _shared(arrays), _shared(arrays)
    for name, p in opt.params.items():
        shared[name][...] = p.data
        p.data = shared[name]

    def worker_side(inbox) -> Iterator:
        # A slot, not the pipe: pickled gradients made a pretrain step about 10% slower.
        for _ in range(n_steps):
            value, hits, grads = _shard(opt, shard_loss, pickle.load(inbox), 1)
            for name, g in grads.items():
                if g is not None:
                    slot[name][...] = g
            yield value, hits, [name for name, g in grads.items() if g is None]

    out = []
    with _worker(worker_side, "step") as (received, outbox):
        for step in range(n_steps):
            try:
                outbox.write(pickle.dumps(step))
            except BrokenPipeError:  # the worker is gone: its record says how
                list(received)
                raise
            mine = _shard(opt, shard_loss, step, 0)
            value, hits, missing = next(received)
            theirs = {name: g for name, g in slot.items() if name not in missing}
            out.append(_apply(opt, [mine, (value, hits, theirs)]))
    return out
