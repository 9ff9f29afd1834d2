"""The checks, run over an assembled ProjectFacts.

Every check resolves names through cross-file registries built once per
run; anything unresolvable is silently skipped (a parse miss must never
produce a false diagnostic — see frontend_internal's contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .diagnostics import Diagnostic, token_for_line
from .facts import FunctionFacts, FunctionSummary, ProjectFacts
from .project import (HOT_FUNCTIONS, LOCK_RANKS, MODEL_CHECKED_DIRS,
                      MODULE_RANK, module_of)
from .summaries import (MUTEX_LOCK_TYPES, Registry, Resolver,
                        SPIN_LOCK_TYPES, build_registry, build_summaries,
                        fn_key, resolve_lock_type, resolve_rank)

EXPLAIN = {
    "layering": """\
Module back-edge: the module DAG (DESIGN.md §11) orders modules by rank
  0: frugal (annotation macros), check (model-sync shims)
  1: common
  2: pq, cache, table
  3: data, metrics, models, sim
  4: runtime            5: api (frugal/frugal.h umbrella)
A file may #include only modules of rank <= its own (same rank allowed).
Fix by moving the shared declaration down the DAG (as models/grad_fn.h
did for the model<->engine contract), never by including upward.""",
    "lock-rank": """\
Static lock-rank inversion: a guard was acquired whose LockRank is <=
the rank of a lock already held in the same scope (or inside a function
called while holding it). Ranks live in src/common/lock_rank.h; the
runtime detector (FRUGAL_LOCK_RANK_CHECKS) catches executed inversions,
this check catches them before they run. Fix by reordering acquisitions
or narrowing the outer critical section.""",
    "tsa-coverage": """\
Unguarded member in a lock-owning class: every non-const, non-atomic
data member of a class that owns a Spinlock/Mutex/StripedLocks must be
FRUGAL_GUARDED_BY/FRUGAL_PT_GUARDED_BY one of its locks, or carry a
`// tsa-exempt: <why>` tag explaining the discipline that protects it
(thread confinement, striped locks, init-before-spawn, ...).""",
    "atomics-relaxed": """\
Unjustified relaxed ordering: each memory_order_relaxed use needs a
`// relaxed: <why>` comment on the same line or within --window lines
above, stating why dropping the ordering is sound (counter only, value
republished with release, etc.).""",
    "atomics-raw": """\
Raw std::atomic in a model-checked dir (src/pq, src/common): state that
participates in a lock-free protocol must be frugal::model_atomic<T> so
the FRUGAL_MODELCHECK interleaving explorer can intercept it. Purely
statistical atomics may opt out with `// modelcheck-exempt: <why>`.""",
    "atomics-cmpxchg": """\
Illegal compare_exchange order pair: the failure order may not be
memory_order_release/acq_rel (the C++ standard forbids it) and must not
be stronger than the success order. Fix the pair; if the failure path
truly needs acquire, the success order must be at least acquire too.""",
    "retry-loop": """\
Hand-rolled retry backoff: a bare std::this_thread::sleep_for/until in
production code is almost always the waiting half of a retry loop, and
hand-rolled loops drift (unbounded total wait, missing caps/jitter —
DESIGN.md §12.3). Route the loop through RetryWithBackoff
(src/common/retry.h, whose own sleep is the one sanctioned site) or tag
the sleep `// retry-exempt: <why>` when it is genuinely not a retry
(sampling period, injected test delay, idle self-wake).""",
    "hotpath-alloc": """\
Allocation on a hot path: functions on the hot list (the flush body
FlushEntryLocked and FlushEntry, the W-slot add path RegisterUpdates/
GEntry::AddWriteLocked, DrainBucket, GpuCache::TryGet/Put/UpdateIfPresent, the oracular
warm/evict paths (WarmBegin/WarmCommit/WarmOne/EvictIfDead/
PickVictimLocked), the row kernels) must not allocate directly or via a
directly-called function. Amortized growth of a thread_local or
pre-reserved buffer may be exempted with `// alloc-ok: <why>` on the
allocating (or calling) line.""",
    "lock-rank-deep": """\
Transitive lock-rank inversion: a call chain starting under a held lock
reaches — through any number of frames — the acquisition of a lock
whose LockRank is <= the held rank. The diagnostic prints the full call
path (one `note:` per frame), computed from whole-program call-graph
summaries (SCC-condensed, so recursion is handled). Fix by reordering
acquisitions, narrowing the outer critical section, or hoisting the
inner acquisition out of the called code. Direct same-scope inversions
are reported by `lock-rank`.""",
    "spin-blocking": """\
Blocking under a spinlock: while a Spinlock/StripedLocks guard is held,
the code (directly or through any call chain) blocks — a CV wait, a
sleep, file I/O, or acquiring a Mutex — or allocates. Spinlock holds
must stay bounded: a blocked holder spins every other contender, which
is exactly the PR 7 degraded-mode livelock shape. Move the blocking
operation outside the critical section, or tag the site
`// spin-block-ok: <why>` when the operation is provably bounded.""",
    "atomic-publish": """\
Atomic publication pairing: a `store(..., memory_order_release)` on an
atomic member must be observed by an acquire/seq_cst (or cmpxchg) load
of the same member somewhere in the program — an unpaired release store
means the pairing load exists but is too weak, or the flag is dead. A
relaxed store to a member that another class loads with a non-relaxed
order is the announce-before-publish bug class (PR 1): the writer
publishes nothing even though the reader synchronizes. Strengthen the
store to release, or relax the reader if no data is published.""",
}

CHECK_IDS = tuple(EXPLAIN)

_ORDER_STRENGTH = {"relaxed": 0, "consume": 1, "acquire": 2, "release": 2,
                   "acq_rel": 3, "seq_cst": 4}


@dataclass
class CheckConfig:
    window: int = 6
    hot: Tuple[str, ...] = HOT_FUNCTIONS
    model_checked_dirs: Tuple[str, ...] = MODEL_CHECKED_DIRS
    checks: Tuple[str, ...] = CHECK_IDS


# ---------------------------------------------------------------------------
# Checks (cross-file registries and call resolution live in summaries.py)
# ---------------------------------------------------------------------------


def check_layering(project: ProjectFacts, cfg: CheckConfig) \
        -> List[Diagnostic]:
    diags = []
    for path, ff in sorted(project.files.items()):
        src_mod = module_of(path)
        if src_mod is None:
            continue
        src_rank = MODULE_RANK[src_mod]
        for line, target in ff.includes:
            dst_mod = module_of(target)
            if dst_mod is None or dst_mod == src_mod:
                continue
            if MODULE_RANK[dst_mod] > src_rank:
                diags.append(Diagnostic(
                    path=path, line=line, check="layering",
                    message=f'back-edge: module "{src_mod}" (rank '
                            f'{src_rank}) includes "{target}" from '
                            f'module "{dst_mod}" (rank '
                            f'{MODULE_RANK[dst_mod]})',
                    token=target))
    return diags


def check_lock_rank(project: ProjectFacts, reg: Registry,
                    cfg: CheckConfig) -> List[Diagnostic]:
    diags = []
    for ff, fn in project.all_functions():
        for nest in fn.nests:
            inner = resolve_rank(nest.inner, fn, reg)
            if inner is None or inner not in LOCK_RANKS:
                continue
            for outer_expr in nest.outers:
                outer = resolve_rank(outer_expr, fn, reg)
                if outer is None or outer not in LOCK_RANKS:
                    continue
                if LOCK_RANKS[inner] <= LOCK_RANKS[outer]:
                    diags.append(Diagnostic(
                        path=ff.path, line=nest.line, check="lock-rank",
                        message=f"acquires {nest.inner} (LockRank::"
                                f"{inner}) while holding {outer_expr} "
                                f"(LockRank::{outer}); ranks must "
                                f"strictly increase inward",
                        token=f"{fn.qualified()}:{inner}<={outer}"))
    return diags


def _trace_notes(trace) -> Tuple[str, ...]:
    """Renders a summary trace ([file, line, label] hops, outermost
    first) as diagnostic continuation lines."""
    return tuple(f"at {hop[0]}:{hop[1]}: {hop[2]}" for hop in trace)


def _held_ranks(exprs, fn: FunctionFacts, reg: Registry):
    out = []
    for e in exprs:
        r = resolve_rank(e, fn, reg)
        if r in LOCK_RANKS:
            out.append((e, r))
    return out


def check_lock_rank_deep(project: ProjectFacts, reg: Registry,
                         resolver: Resolver,
                         summaries: Dict[str, FunctionSummary],
                         cfg: CheckConfig) -> List[Diagnostic]:
    """Rank inversions through arbitrarily deep call chains: summaries
    carry every rank a callee transitively acquires plus one example
    trace, so each held-lock call site is a dictionary probe."""
    diags = []
    for ff, fn in project.all_functions():
        for call in fn.calls:
            if not call.held:
                continue
            held = _held_ranks(call.held, fn, reg)
            if not held:
                continue
            for cpath, cfn in resolver.resolve_call(
                    ff.path, fn, call.line, call.name):
                if cfn is fn:
                    continue
                summ = summaries.get(fn_key(cpath, cfn))
                if summ is None:
                    continue
                for acq, trace in sorted(summ.ranks.items()):
                    if acq not in LOCK_RANKS:
                        continue
                    for held_expr, held_rank in held:
                        if LOCK_RANKS[acq] > LOCK_RANKS[held_rank]:
                            continue
                        head = (f"calls {call.name} while holding "
                                f"{held_expr} (LockRank::{held_rank})")
                        diags.append(Diagnostic(
                            path=ff.path, line=call.line,
                            check="lock-rank-deep",
                            message=f"call chain acquires LockRank::"
                                    f"{acq} ({len(trace)} frame(s) "
                                    f"deep) while holding {held_expr} "
                                    f"(LockRank::{held_rank}); ranks "
                                    f"must strictly increase inward",
                            token=f"{fn.qualified()}->"
                                  f"{cfn.qualified()}:"
                                  f"{acq}<={held_rank}",
                            notes=(head,) + _trace_notes(trace)))
    return diags


def _spin_held(exprs, fn: FunctionFacts, reg: Registry) \
        -> Optional[str]:
    """First held guard expression that resolves to a spin lock."""
    for e in exprs:
        if resolve_lock_type(e, fn, reg) in SPIN_LOCK_TYPES:
            return e
    return None


_SPIN_TAG_WINDOW = 3


def check_spin_blocking(project: ProjectFacts, reg: Registry,
                        resolver: Resolver,
                        summaries: Dict[str, FunctionSummary],
                        cfg: CheckConfig) -> List[Diagnostic]:
    """Any blocking primitive or allocation reached — directly or
    through the call graph — while a Spinlock is held."""
    diags = []
    for ff, fn in project.all_functions():
        qual = fn.qualified()
        for b in fn.blocking:
            spin = _spin_held(b.held, fn, reg)
            if spin is None or b.tagged:
                continue
            diags.append(Diagnostic(
                path=ff.path, line=b.line, check="spin-blocking",
                message=f"{b.what} while holding Spinlock {spin}; "
                        f"spinlock holds must stay bounded (tag "
                        f"`spin-block-ok:` if provably bounded)",
                token=f"{qual}:{b.what}"))
        for a in fn.allocs:
            spin = _spin_held(a.held, fn, reg)
            if spin is None or a.tagged:
                continue
            if ff.has_tag_near(a.line, "spin-block-ok:",
                               window=_SPIN_TAG_WINDOW):
                continue
            diags.append(Diagnostic(
                path=ff.path, line=a.line, check="spin-blocking",
                message=f"allocates ({a.what}) while holding Spinlock "
                        f"{spin}; allocation may take the allocator "
                        f"lock or fault (tag `spin-block-ok:` if "
                        f"provably bounded)",
                token=f"{qual}:alloc:{a.what}"))
        for nest in fn.nests:
            if resolve_lock_type(nest.inner, fn, reg) \
                    not in MUTEX_LOCK_TYPES:
                continue
            spin = _spin_held(nest.outers, fn, reg)
            if spin is None:
                continue
            if ff.has_tag_near(nest.line, "spin-block-ok:",
                               window=_SPIN_TAG_WINDOW):
                continue
            diags.append(Diagnostic(
                path=ff.path, line=nest.line, check="spin-blocking",
                message=f"acquires mutex {nest.inner} while holding "
                        f"Spinlock {spin}; a blocked holder spins "
                        f"every other contender",
                token=f"{qual}:mutex-under-spin"))
        for call in fn.calls:
            spin = _spin_held(call.held, fn, reg)
            if spin is None:
                continue
            if ff.has_tag_near(call.line, "spin-block-ok:",
                               window=_SPIN_TAG_WINDOW):
                continue
            for cpath, cfn in resolver.resolve_call(
                    ff.path, fn, call.line, call.name):
                if cfn is fn:
                    continue
                summ = summaries.get(fn_key(cpath, cfn))
                if summ is None:
                    continue
                head = (f"calls {call.name} while holding Spinlock "
                        f"{spin}")
                for what, trace in sorted(summ.blocking.items()):
                    diags.append(Diagnostic(
                        path=ff.path, line=call.line,
                        check="spin-blocking",
                        message=f"call chain reaches {what} "
                                f"({len(trace)} frame(s) deep) while "
                                f"holding Spinlock {spin}",
                        token=f"{qual}->{cfn.qualified()}:{what}",
                        notes=(head,) + _trace_notes(trace)))
                for what, trace in sorted(summ.allocs.items()):
                    diags.append(Diagnostic(
                        path=ff.path, line=call.line,
                        check="spin-blocking",
                        message=f"call chain allocates ({what}, "
                                f"{len(trace)} frame(s) deep) while "
                                f"holding Spinlock {spin}",
                        token=f"{qual}->{cfn.qualified()}:"
                              f"alloc:{what}",
                        notes=(head,) + _trace_notes(trace)))
    return diags


# Ops that constitute a read of the published value. A cmpxchg's order
# fact records its success order.
_ATOMIC_READ_OPS = ("load", "exchange", "fetch_add", "fetch_sub",
                    "fetch_and", "fetch_or", "fetch_xor",
                    "compare_exchange_weak", "compare_exchange_strong")
# Orders strong enough to pair with a release store (None = defaulted
# seq_cst).
_ACQUIRING_ORDERS = (None, "consume", "acquire", "acq_rel", "seq_cst")


def check_atomic_publish(project: ProjectFacts, reg: Registry,
                         cfg: CheckConfig) -> List[Diagnostic]:
    """Publication pairing over all atomic member ops in the program."""
    owners_of: Dict[str, set] = {}
    for cls, members in reg.atomic_members.items():
        for m in members:
            owners_of.setdefault(m, set()).add(cls)
    stores: Dict[Tuple[str, str], List] = {}
    reads: Dict[Tuple[str, str], List] = {}
    for path, ff in sorted(project.files.items()):
        for site in ff.atomic_ops:
            if site.owner == "<local>":
                continue
            if site.owner:
                if site.member not in reg.atomic_members.get(site.owner,
                                                             ()):
                    continue       # mis-resolved or not atomic: skip
                cls = site.owner
            else:
                owners = owners_of.get(site.member, set())
                if len(owners) != 1:
                    continue
                cls = next(iter(owners))
            key = (cls, site.member)
            if site.op == "store":
                stores.setdefault(key, []).append((path, site))
            if site.op in _ATOMIC_READ_OPS:
                reads.setdefault(key, []).append((path, site))
    diags = []
    for key in sorted(stores):
        cls, member = key
        sts = stores[key]
        rel = [(p, s) for p, s in sts if s.order == "release"]
        if rel:
            paired = [(p, s) for p, s in reads.get(key, [])
                      if s.order in _ACQUIRING_ORDERS]
            if not paired:
                path, site = rel[0]
                weak = reads.get(key, [])
                notes = tuple(
                    f"at {p}:{s.line}: {s.op} with memory_order_"
                    f"{s.order} does not synchronize"
                    for p, s in weak[:3])
                diags.append(Diagnostic(
                    path=path, line=site.line, check="atomic-publish",
                    message=f"release store to {cls}::{member} has no "
                            f"acquire/seq_cst load anywhere in the "
                            f"program; the publication is unobservable"
                            + ("" if weak else
                               " (no load of this member at all)"),
                    token=f"{cls}::{member}:unpaired-release",
                    notes=notes))
        for spath, ssite in [(p, s) for p, s in sts
                             if s.order == "relaxed"]:
            cross = [(p, s) for p, s in reads.get(key, [])
                     if s.cls != ssite.cls and s.cls != cls and
                     s.order in _ACQUIRING_ORDERS]
            if not cross:
                continue
            rpath, rsite = cross[0]
            diags.append(Diagnostic(
                path=spath, line=ssite.line, check="atomic-publish",
                message=f"relaxed store to {cls}::{member} is read "
                        f"with memory_order_"
                        f"{rsite.order or 'seq_cst'} from "
                        f"'{rsite.cls or '<free>'}'; the reader "
                        f"synchronizes with nothing (publish with "
                        f"release, or relax the reader)",
                token=f"{cls}::{member}:relaxed-cross-class",
                notes=(f"at {rpath}:{rsite.line}: {rsite.op} by "
                       f"'{rsite.cls or '<free>'}'",)))
            break
    return diags


def ambiguity_diags(resolver: Resolver) -> List[Diagnostic]:
    """Info-severity notices for calls resolved only by last-segment
    fallback (printed with --verbose; never affect the exit code)."""
    return [Diagnostic(
        path=p, line=line, check="analyzer-ambiguous",
        severity="info",
        message=f"call '{chain}' resolved only by last-segment "
                f"fallback to '{target}'; type the receiver or "
                f"qualify the call",
        token=f"{chain}->{target}")
        for p, line, chain, target in resolver.fallbacks]


_EXEMPT_MEMBER_TYPES = ("condition_variable",)


def check_tsa_coverage(project: ProjectFacts, cfg: CheckConfig) \
        -> List[Diagnostic]:
    diags = []
    for ff, cf in project.all_classes():
        lock_names = {m.name for m in cf.members if m.lock_type}
        if not lock_names:
            continue
        for mem in cf.members:
            if mem.lock_type or mem.is_const or mem.is_atomic:
                continue
            if mem.guarded_by or mem.pt_guarded_by:
                continue
            if any(t in mem.decl for t in _EXEMPT_MEMBER_TYPES):
                continue
            if ff.has_tag_near(mem.line, "tsa-exempt:", window=2):
                continue
            diags.append(Diagnostic(
                path=ff.path, line=mem.line, check="tsa-coverage",
                message=f"member '{mem.name}' of lock-owning class "
                        f"'{cf.name}' is neither GUARDED_BY nor "
                        f"tsa-exempt (locks: "
                        f"{', '.join(sorted(lock_names))})",
                token=f"{cf.name}::{mem.name}"))
    return diags


def check_atomics(project: ProjectFacts, cfg: CheckConfig) \
        -> List[Diagnostic]:
    diags = []
    for path, ff in sorted(project.files.items()):
        for line in ff.relaxed_lines:
            if ff.has_tag_near(line, "relaxed:", window=cfg.window):
                continue
            diags.append(Diagnostic(
                path=path, line=line, check="atomics-relaxed",
                message="memory_order_relaxed without a justifying "
                        "`relaxed:` comment within "
                        f"{cfg.window} lines",
                token=token_for_line(_line_text(project, path, line))))
        head = path.split("/", 1)[0]
        if head in cfg.model_checked_dirs:
            for line in ff.raw_atomic_lines:
                if ff.has_tag_near(line, "modelcheck-exempt:",
                                   window=cfg.window):
                    continue
                diags.append(Diagnostic(
                    path=path, line=line, check="atomics-raw",
                    message="raw std::atomic in a model-checked dir; "
                            "use frugal::model_atomic or tag "
                            "`modelcheck-exempt:`",
                    token=token_for_line(
                        _line_text(project, path, line))))
        for site in ff.cmpxchg:
            if site.failure is None:
                continue
            fail = site.failure
            succ = site.success or "seq_cst"
            if fail in ("release", "acq_rel"):
                diags.append(Diagnostic(
                    path=path, line=site.line, check="atomics-cmpxchg",
                    message=f"compare_exchange failure order "
                            f"memory_order_{fail} is forbidden",
                    token=f"cmpxchg:{succ}/{fail}"))
            elif _ORDER_STRENGTH.get(fail, 0) > \
                    _ORDER_STRENGTH.get(succ, 4):
                diags.append(Diagnostic(
                    path=path, line=site.line, check="atomics-cmpxchg",
                    message=f"compare_exchange failure order "
                            f"memory_order_{fail} is stronger than "
                            f"success order memory_order_{succ}",
                    token=f"cmpxchg:{succ}/{fail}"))
    return diags


# The one file whose sleep is the policy, not a policy violation.
_RETRY_POLICY_FILE = "common/retry.h"


def check_retry_loop(project: ProjectFacts, cfg: CheckConfig) \
        -> List[Diagnostic]:
    diags = []
    for path, ff in sorted(project.files.items()):
        if path == _RETRY_POLICY_FILE:
            continue
        for line in ff.sleep_lines:
            if ff.has_tag_near(line, "retry-exempt:", window=cfg.window):
                continue
            diags.append(Diagnostic(
                path=path, line=line, check="retry-loop",
                message="bare sleep_for/sleep_until outside "
                        "RetryWithBackoff; route the retry through "
                        "common/retry.h or tag `retry-exempt:`",
                token=token_for_line(_line_text(project, path, line))))
    return diags


def _line_text(project: ProjectFacts, path: str, line: int) -> str:
    # Facts don't carry source text; token over path+line of the *fact*
    # kind keeps baselines stable enough without it.
    return f"{path}#{line}"


def check_hotpath_alloc(project: ProjectFacts, reg: Registry,
                        resolver: Resolver,
                        cfg: CheckConfig) -> List[Diagnostic]:
    hot = set(cfg.hot)
    diags = []
    for ff, fn in project.all_functions():
        if fn.qualified() not in hot and fn.name not in hot:
            continue
        for site in fn.allocs:
            if site.tagged:
                continue
            diags.append(Diagnostic(
                path=ff.path, line=site.line, check="hotpath-alloc",
                message=f"hot-path function '{fn.qualified()}' "
                        f"allocates ({site.what}); pre-reserve or tag "
                        f"`alloc-ok:`",
                token=f"{fn.qualified()}:{site.what}"))
        for call in fn.calls:
            for callee_path, callee_fn in resolver.resolve_call(
                    ff.path, fn, call.line, call.name):
                if callee_fn is fn:
                    continue
                if callee_fn.qualified() in hot or \
                        callee_fn.name in hot:
                    continue  # reported on the callee itself
                bad = [a for a in callee_fn.allocs if not a.tagged]
                if not bad:
                    continue
                if ff.has_tag_near(call.line, "alloc-ok:", window=3):
                    continue
                diags.append(Diagnostic(
                    path=ff.path, line=call.line, check="hotpath-alloc",
                    message=f"hot-path function '{fn.qualified()}' "
                            f"calls '{callee_fn.qualified()}' which "
                            f"allocates ({bad[0].what} at "
                            f"{callee_path}:{bad[0].line}); tag "
                            f"`alloc-ok:` or hoist",
                    token=f"{fn.qualified()}->"
                          f"{callee_fn.qualified()}"))
    return diags


def run_checks(project: ProjectFacts, cfg: CheckConfig,
               stats_out: Optional[Dict[str, int]] = None,
               summary_cache=None) -> List[Diagnostic]:
    """Runs the configured checks. Info-severity diagnostics
    (analyzer-ambiguous) ride along in the returned list; callers that
    gate exit codes filter on `severity`. When `stats_out` is given it
    receives the call-resolution kind counts. `summary_cache` is an
    optional (FactsCache, project_digest) pair holding the serialized
    summary fixpoint; resolution stats then cover only check-driven
    resolutions, since the fixpoint's own resolutions are skipped."""
    reg = build_registry(project)
    resolver = Resolver(reg)
    summaries = None
    if summary_cache is not None:
        cache, digest = summary_cache
        summaries = cache.get_summaries(digest)
    if summaries is None:
        summaries = build_summaries(project, reg, resolver)
        if summary_cache is not None:
            cache.put_summaries(digest, summaries)
    diags: List[Diagnostic] = []
    if "layering" in cfg.checks:
        diags += check_layering(project, cfg)
    if "lock-rank" in cfg.checks:
        diags += check_lock_rank(project, reg, cfg)
    if "lock-rank-deep" in cfg.checks:
        diags += check_lock_rank_deep(project, reg, resolver,
                                      summaries, cfg)
    if "spin-blocking" in cfg.checks:
        diags += check_spin_blocking(project, reg, resolver,
                                     summaries, cfg)
    if "atomic-publish" in cfg.checks:
        diags += check_atomic_publish(project, reg, cfg)
    if "tsa-coverage" in cfg.checks:
        diags += check_tsa_coverage(project, cfg)
    if {"atomics-relaxed", "atomics-raw",
            "atomics-cmpxchg"} & set(cfg.checks):
        atomics = check_atomics(project, cfg)
        diags += [d for d in atomics if d.check in cfg.checks]
    if "retry-loop" in cfg.checks:
        diags += check_retry_loop(project, cfg)
    if "hotpath-alloc" in cfg.checks:
        diags += check_hotpath_alloc(project, reg, resolver, cfg)
    diags += ambiguity_diags(resolver)
    if stats_out is not None:
        stats_out.update(resolver.stats)
    seen = set()
    unique = []
    for d in sorted(diags, key=lambda d: (d.path, d.line, d.check)):
        if (d.path, d.line, d.check, d.token) in seen:
            continue
        seen.add((d.path, d.line, d.check, d.token))
        unique.append(d)
    return unique
