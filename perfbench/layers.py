"""Per-layer spans and counters for an in-process run of the CLI.

The package is traced from outside: each target function is replaced by a
wrapper for the duration of a pass and restored afterwards.  `cli.py` binds
library functions by name (`from .counting import asf_profile`), so a
function is replaced in every `absquares.*` namespace that holds it, not
only in its home module.  Layers are loaded with
`importlib.import_module("absquares.<layer>")` because the package
attribute `absquares.discrepancy` is the re-exported function, not the
submodule.  A target that no longer exists is skipped, and every metric
that needs it is reported absent.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

# Targets are "<layer>.<attribute path>"; the layer is a module of absquares.
SPAN_TARGETS = (
    "words.read_word_file",
    "words.write_word_file",
    "substitutions.fixed_point_prefix",
    "substitutions.thue_morse_prefix",
    "quadratic.parse_angle",
    "sturmian.sturmian_prefix",
    "sturmian.sturmian_asf_range",
    "discrepancy.rotation_orbit",
    "discrepancy.discrepancy",
    "discrepancy.rotation_discrepancy",
    "discrepancy.certificate_sweep",
    "discrepancy.growth_certificate",
    "counting.build_suffix_array",
    "counting.lcp_array",
    "counting.FactorIndex.__init__",
    "counting.asf_profile",
    "counting.inequivalent_profile",
    "counting.factor_counts_stable",
    "analysis.random_baseline",
    "analysis.richness_report",
    "search.max_asf",
    "search.max_inequivalent",
    "search.witness_value",
)

# Hot paths: counted in a pass of their own, because even a counter on
# every QuadraticIrrational construction slows the rotation spans.
COUNT_TARGETS = ("quadratic.QuadraticIrrational.__init__",)

ROOT = "cli.main"
SEARCH = ("search.max_asf", "search.max_inequivalent")


def _checkpoint_records(args, kwargs) -> int:
    """Shard records already in a search's checkpoint when it starts."""
    path = kwargs.get("checkpoint")
    if path is None or not Path(path).is_file():
        return 0
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    return max(len(lines) - 1, 0)  # the first line is the header


def _letters(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["word"])


# Optional notes taken at call boundaries: before(args, kwargs) and
# after(args, kwargs, result).
BEFORE = {name: _checkpoint_records for name in SEARCH}
AFTER = {
    "counting.FactorIndex.__init__": _letters,
    "sturmian.sturmian_prefix": lambda args, kwargs, result: len(result),
    **{name: lambda args, kwargs, result: result.enumerated for name in SEARCH},
}


def _resolve(target: str):
    """(holder, attribute, original) for a target, or None if it is gone."""
    layer, *path = target.split(".")
    try:
        holder = importlib.import_module(f"absquares.{layer}")
        for attr in path[:-1]:
            holder = getattr(holder, attr)
        return holder, path[-1], getattr(holder, path[-1])
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Installs wrappers on the targets, records spans or call counts, and
    restores the originals on `uninstall`."""

    def __init__(self, targets, timed: bool = True):
        self.targets = tuple(targets)
        self.timed = timed
        self.missing: set[str] = set()
        self.calls: dict[str, int] = {}
        # [name, parent index, start, end, before note, after note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        self.missing = set()
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                self.missing.add(target)
                continue
            holder, attr, original = found
            wrapper = self._wrap(target, original) if self.timed else self._count(target, original)
            if isinstance(holder, type):
                self._patch(holder, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "absquares" or name.startswith("absquares.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        for holder, attr, had_own, original in reversed(self._patched):
            if had_own:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)
        self._patched.clear()

    def _patch(self, holder, attr, wrapper) -> None:
        had_own = attr in vars(holder)
        self._patched.append((holder, attr, had_own, vars(holder).get(attr)))
        setattr(holder, attr, wrapper)

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn):
        before, after = BEFORE.get(name), AFTER.get(name)

        def wrapper(*args, **kwargs):
            note = before(args, kwargs) if before else None
            return self._span(name, fn, args, kwargs, note, after)

        return wrapper

    def call(self, fn, *args):
        """Run fn(*args) as a root span named `cli.main`."""
        return self._span(ROOT, fn, args, {}, None, None)

    def _span(self, name, fn, args, kwargs, note, after):
        spans, stack = self.spans, self._stack
        record = [name, stack[-1] if stack else -1, 0.0, 0.0, note, None]
        stack.append(len(spans))
        spans.append(record)
        record[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = perf_counter()
            stack.pop()
        if after:
            try:
                record[5] = after(args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError):
                pass  # the note stays None and its metrics are absent
        return result

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: name, parent, start, end, notes."""
        with path.open("w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class SpanView:
    """Inclusive and self times over a list of spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.duration = [s[3] - s[2] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, self.duration):
            if s[1] >= 0:
                child_time[s[1]] += d
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def _ancestors(self, i: int):
        parent = self.spans[i][1]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][1]

    def indices(self, *names) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def inclusive(self, *names) -> float:
        """Time inside the named spans, counting nested ones once."""
        return sum(
            self.duration[i]
            for i in self.indices(*names)
            if not any(a in names for a in self._ancestors(i))
        )

    def self_of(self, *names) -> float:
        return sum(self.self_time[i] for i in self.indices(*names))

    def count(self, *names) -> int:
        return len(self.indices(*names))

    def notes(self, slot: int, *names) -> list:
        """The notes in `slot` (4: before, 5: after) of the named spans."""
        return [self.spans[i][slot] for i in self.indices(*names)]

    def under(self, name: str, prefix: str) -> int:
        """Number of `name` spans with an ancestor in the layer `prefix`."""
        return sum(
            1
            for i in self.indices(name)
            if any(a.startswith(prefix) for a in self._ancestors(i))
        )


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def _search_rate(v: SpanView) -> float:
    """Words per second over the searches that resumed nothing."""
    fresh = [i for i in v.indices(*SEARCH) if not v.spans[i][4]]
    return _rate(sum(v.spans[i][5] for i in fresh), sum(v.duration[i] for i in fresh))


def inclusive(*targets):
    return targets, lambda v: v.inclusive(*targets)


def self_time(*targets):
    return targets, lambda v: v.self_of(*targets)


FI = "counting.FactorIndex.__init__"
PREFIX = "sturmian.sturmian_prefix"

# metric -> (targets it needs, how to read it from the spans)
SPAN_METRICS = {
    "cli.self_s": ((), lambda v: v.self_of(ROOT)),
    "counting.suffix_array_s": inclusive("counting.build_suffix_array"),
    "counting.lcp_s": inclusive("counting.lcp_array"),
    "counting.index_self_s": self_time(FI),
    "counting.letters_indexed": ((FI,), lambda v: sum(v.notes(5, FI))),
    "counting.letters_per_s": ((FI,), lambda v: _rate(sum(v.notes(5, FI)), v.inclusive(FI))),
    "counting.profile_self_s": self_time("counting.asf_profile", "counting.inequivalent_profile"),
    "counting.index_builds": ((FI,), lambda v: v.count(FI)),
    "counting.adequacy_s": inclusive("counting.factor_counts_stable"),
    "quadratic.parse_s": inclusive("quadratic.parse_angle"),
    "sturmian.prefix_s": inclusive(PREFIX),
    "sturmian.asf_range_s": inclusive("sturmian.sturmian_asf_range"),
    "sturmian.letters_per_s": (
        (PREFIX,), lambda v: _rate(sum(v.notes(5, PREFIX)), v.inclusive(PREFIX))
    ),
    "discrepancy.orbit_s": inclusive("discrepancy.rotation_orbit"),
    "discrepancy.self_s": self_time("discrepancy.discrepancy", "discrepancy.rotation_discrepancy"),
    "discrepancy.certificate_self_s": self_time(
        "discrepancy.certificate_sweep", "discrepancy.growth_certificate"
    ),
    "substitutions.fixed_point_s": inclusive(
        "substitutions.fixed_point_prefix", "substitutions.thue_morse_prefix"
    ),
    "words.read_s": inclusive("words.read_word_file"),
    "words.write_s": inclusive("words.write_word_file"),
    "analysis.baseline_self_s": self_time("analysis.random_baseline"),
    "analysis.richness_self_s": self_time("analysis.richness_report"),
    "analysis.words_evaluated": (
        ("counting.asf_profile", "analysis.random_baseline", "analysis.richness_report"),
        lambda v: v.under("counting.asf_profile", "analysis."),
    ),
    "search.run_s": inclusive(*SEARCH),
    "search.words_enumerated": (SEARCH, lambda v: sum(v.notes(5, *SEARCH))),
    "search.words_per_s": (SEARCH, _search_rate),
    "search.verify_s": inclusive("search.witness_value"),
    "search.resume_s": (
        SEARCH, lambda v: sum(v.duration[i] for i in v.indices(*SEARCH) if v.spans[i][4])
    ),
    "search.shards_resumed": (SEARCH, lambda v: sum(v.notes(4, *SEARCH))),
}

COUNT_METRICS = {"quadratic.qi_built": "quadratic.QuadraticIrrational.__init__"}


def span_metrics(tracer: Tracer) -> dict:
    """Every span metric whose targets all exist, read from one pass."""
    view = SpanView(tracer.spans)
    out = {}
    for name, (needs, read) in SPAN_METRICS.items():
        if tracer.missing.intersection(needs):
            continue
        try:
            out[name] = float(read(view))
        except TypeError:  # a note could not be taken (None in a sum)
            continue
    return out


def count_metrics(counter: Tracer) -> dict:
    return {
        name: float(counter.calls.get(target, 0))
        for name, target in COUNT_METRICS.items()
        if target not in counter.missing
    }
