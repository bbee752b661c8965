"""In-memory spans and counts recorded around the program's public calls.

A :class:`Tracer` keeps every span (name, start, end, parent, request id)
and every count in memory; :func:`install` wraps the public functions and
methods listed in :data:`PATCHES` so that calls made by the program itself
(``Tensor.backward`` inside ``fit``, ``Partitioning.indicator_batch`` inside
the compiled kernel, ...) are timed at the layer boundary.  The wrappers live
here, in the benchmark's own files, and are removed again by the function
``install`` returns.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Self times of all spans plus an explicit unattributed
remainder add up to the wall time of the traced region.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]


class Tracer:
    """Records spans and counts; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._request: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def _span(self, name: str, request: Optional[int]) -> Iterator[None]:
        stack = self._stack()
        span_id = len(self.spans)
        parent = stack[-1] if stack else None
        if request is None:
            request = self._request
        span = Span(span_id, name, self.clock(), 0.0, parent, request)
        self.spans.append(span)
        stack.append(span_id)
        try:
            yield
        finally:
            span.end = self.clock()
            stack.pop()

    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            return nullcontext()
        return self._span(name, request)

    @contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """Tag every span opened inside the block with ``request_id``."""
        previous, self._request = self._request, request_id
        try:
            yield
        finally:
            self._request = previous

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of its children."""
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = max(span.end - span.start - covered, 0.0)
    return result


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span_id, seconds in self_times(spans).items():
        totals[spans[span_id].name] += seconds
    return dict(totals)


def span_calls(spans: Sequence[Span]) -> Counter:
    return Counter(span.name for span in spans)


# ---------------------------------------------------------------------- #
# Wrappers around the program's public calls
# ---------------------------------------------------------------------- #
def _rows(args) -> int:
    return len(args[0])


def _grid_points(args) -> int:
    return len(args[0]) * len(args[1])


#: (module, owner class or None for a module function, attribute, span name,
#: count name, count function of the call's positional arguments after self)
PATCHES: Tuple[Tuple[str, Optional[str], str, str, Optional[str], Optional[Callable]], ...] = (
    ("repro.core.trainer", None, "build_partitioning", "index.partition", None, None),
    ("repro.nn.autoencoder", "Autoencoder", "pretrain", "nn.ae_pretrain", None, None),
    ("repro.core.partitioned", "PartitionedSelNet", "local_outputs", "core.forward", None, None),
    ("repro.core.partitioned", "PartitionedSelNet", "forward", "core.forward", None, None),
    ("repro.core.selnet", "SelNetModel", "forward", "core.forward", None, None),
    ("repro.autodiff.tensor", "Tensor", "backward", "autodiff.backward", "autodiff.backward_calls", None),
    ("repro.nn.optim", "Adam", "step", "nn.optim_step", "nn.optim_steps", None),
    ("repro.index.partitioner", "Partitioning", "indicator_batch", "index.indicator", "index.indicator_rows", _rows),
    ("repro.index.partitioner", "Partitioning", "local_selectivity_labels", "index.local_labels", None, None),
    ("repro.inference.kernels", "CompiledPartitionedSelNet", "curve_values", "inference.curve_values", "inference.curve_points", _grid_points),
    ("repro.inference.kernels", "CompiledSelNet", "curve_values", "inference.curve_values", "inference.curve_points", _grid_points),
    ("repro.inference", None, "compile_estimator", "inference.compile", "inference.compiles", None),
    ("repro.core.incremental", "IncrementalSelNetEstimator", "update", "core.update", None, None),
    ("repro.exact.delta", "DeltaOracle", "apply", "exact.delta", None, None),
    ("repro.exact.delta", "DeltaOracle", "selectivities_batch", "exact.delta", None, None),
    ("repro.exact.delta", "DeltaOracle", "batch_selectivity", "exact.delta", None, None),
)


def _wrap(tracer: Tracer, original, span_name: str, count_name, count_fn, method: bool):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if count_name is not None:
            call_args = args[1:] if method else args
            tracer.count(count_name, count_fn(call_args) if count_fn else 1)
        with tracer.span(span_name):
            return original(*args, **kwargs)

    return wrapper


def install(tracer: Tracer, patches=PATCHES) -> Callable[[], None]:
    """Wrap every patch target; return the function that restores them."""
    restore: List[Tuple[object, str, object]] = []
    for module_name, owner_name, attribute, span_name, count_name, count_fn in patches:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        original = owner.__dict__[attribute] if owner_name else getattr(owner, attribute)
        restore.append((owner, attribute, original))
        setattr(
            owner,
            attribute,
            _wrap(tracer, original, span_name, count_name, count_fn, owner_name is not None),
        )

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall
