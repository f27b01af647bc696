"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------

``analyze FILE``
    Parse a system description (:mod:`repro.dsl`) and decide safety;
    ``--certificate`` prints the full unsafeness certificate,
    ``--exhaustive`` cross-checks against the definitional decider,
    ``--dot`` emits ``D(T1, T2)`` in Graphviz DOT.

``simulate FILE``
    Monte-Carlo execution on the distributed lock-manager simulator;
    ``--faults PLAN.json`` injects a seeded fault plan
    (:mod:`repro.faults`) and ``--deadlock-policy`` /
    ``--max-retries`` turn detected deadlocks into victim rollback and
    bounded retry instead of terminal outcomes.

``chaos [FILE]``
    Sweep many driver seeds under one fault plan and aggregate the
    recovery statistics (completion rate, retries per run, p95
    rollback-to-completion latency).  The system file may be embedded
    in the plan (``"system": "path.sys"``).

``plane FILE``
    Render the coordinated plane of a totally ordered pair (Fig. 2
    style), with the separating curve when one exists.

``reduce FORMULA``
    Theorem 3 end-to-end: compile a CNF formula to a transaction pair
    and decide its safety (⟺ unsatisfiability).

``figures [NAME]``
    Print the paper's figure systems in the DSL, with their verdicts.

``vet FILE...``
    Batch-vet many system files through one admission registry
    (:mod:`repro.service`): every transaction is admitted incrementally,
    with fingerprint-cached pair verdicts.

``serve``
    Long-running line-oriented admission loop on stdin/stdout:
    ``ADMIT <dsl with ';' for newlines>``, ``EVICT <name>``, ``STATS``,
    ``METRICS``, ``QUIT``.

``cluster run|serve|status``
    The networked runtime (:mod:`repro.cluster`): ``run`` boots an
    in-process multi-site cluster (``--transport memory`` for
    deterministic queues, ``tcp`` for real sockets), executes
    ``--rounds`` instances of a system and audits every committed
    history for serializability; ``serve`` runs one TCP site server in
    the foreground; ``status`` probes live sites (``--peer
    ADDR=HOST:PORT``), prints each lock table / wait queue / replica
    lease state and stitches the per-site wait-for edges into the
    global graph, flagging deadlock cycles (exit 1) and unreachable
    sites (exit 2).

``postmortem DIR``
    Render a post-mortem bundle (:mod:`repro.obs.insight`) written by
    ``cluster run --postmortem DIR`` when a run ended non-serializable,
    with a partial commit, with an incomplete audit or with a
    transaction uncommitted — exactly when ``cluster run`` exits 1: run
    summary, contention ranking, the tail of the run's event timeline
    and any bundled trace files.

``arena``
    Sweep a policy × workload × fault-plan matrix (:mod:`repro.arena`):
    each ``--workload SPEC.json`` is a seeded traffic model
    (:mod:`repro.workloads.traffic` — key skew, transaction mix,
    open/closed arrivals, region latency), instantiated under every
    ``--policy`` and run through a fresh cluster per cell with every
    ``--fault-plan`` injected.  Reports throughput, p50/p99 latency and
    abort/retry rates per cell; exits non-zero only when a cell's
    committed history fails the serializability audit.  ``cluster run
    --workload SPEC.json`` runs a single cell interactively.

``trace-report FILE [FILE ...]``
    Aggregate span traces (written by ``--trace``) into a top-spans
    table: call counts, total / self / max time per span name.  Given
    several files (one per process of a distributed run) the records
    are merged by trace id and the report appends the cross-process
    section: causal span trees for the slowest transactions, the
    per-stage wire-latency percentiles, and election annotations.
    When the records hold ``site.lock_wait`` spans, the report also
    appends per-entity lock-contention analytics (wait percentiles,
    queue depth, convoy/starvation flags).  Damaged lines (a crash-killed
    producer leaves a truncated tail) are skipped with a counted
    warning instead of failing the whole report.

Observability (:mod:`repro.obs`) cuts across the subcommands: ``-v`` /
``--quiet`` tune narration globally (``--log-json`` swaps it onto a
JSON-lines logger), while ``analyze`` / ``simulate`` / ``vet`` /
``cluster run`` / ``cluster serve`` accept ``--trace FILE`` (record a
span timeline) and ``--metrics`` (dump the process metrics registry to
stderr, Prometheus text format, on exit).  For ``cluster run`` and
``cluster serve``, ``--metrics`` also switches on the per-stage
wire-latency histograms (:mod:`repro.obs.distributed`).
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import GeometricPicture, d_graph, decide_safety, decide_safety_exhaustive
from .dsl import parse_system, render_system
from .errors import ReproError
from .logic import CnfFormula, is_satisfiable
from .obs import log, metrics, trace
from .sim import estimate_violation_rate
from .viz import digraph_to_dot, render_plane


def _load_system(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_system(handle.read())


def cmd_analyze(args: argparse.Namespace) -> int:
    log.info(f"loading {args.file}")
    system = _load_system(args.file)
    verdict = decide_safety(system, want_certificate=args.certificate)
    if args.json:
        payload = verdict.to_dict()
        payload["transactions"] = system.names
        if args.exhaustive:
            payload["exhaustive_agrees"] = (
                decide_safety_exhaustive(system).safe == verdict.safe
            )
        log.result(json.dumps(payload, indent=2))
        return 0 if verdict.safe else 1
    log.out(f"transactions: {', '.join(system.names)}")
    sites_used: set[int] = set()
    for tx in system.transactions:
        sites_used |= tx.sites_used()
    log.out(f"sites used:   {sorted(sites_used)}")
    log.result(f"safe:         {verdict.safe}")
    log.result(f"method:       {verdict.method}")
    log.result(f"detail:       {verdict.detail}")
    if verdict.witness is not None:
        log.result(f"witness:      {verdict.witness}")
    if args.certificate and verdict.certificate is not None:
        log.result()
        log.result(verdict.certificate.describe())
    if args.exhaustive:
        ground_truth = decide_safety_exhaustive(system)
        agree = ground_truth.safe == verdict.safe
        log.out(f"exhaustive:   safe={ground_truth.safe} (agree: {agree})")
        if not agree:
            return 2
    if args.dot and len(system) == 2:
        log.result()
        log.result(digraph_to_dot(d_graph(*system.pair()), name="D(T1,T2)"))
    return 0 if verdict.safe else 1


def _load_plan(args: argparse.Namespace):
    """The :class:`~repro.faults.FaultPlan` named by ``--faults``, or
    ``None``; validated against *system* by the caller."""
    if getattr(args, "faults", None) is None:
        return None
    from .faults import FaultPlan

    log.info(f"loading fault plan {args.faults}")
    return FaultPlan.load(args.faults)


def cmd_simulate(args: argparse.Namespace) -> int:
    log.info(f"loading {args.file}")
    system = _load_system(args.file)
    plan = _load_plan(args)
    if plan is not None:
        plan.validate_against(system)
    fault_kwargs = {
        "fault_plan": plan,
        "deadlock_policy": args.deadlock_policy,
        "max_retries": args.max_retries,
    }
    if args.events:
        from .obs.events import EventLog
        from .sim import RandomDriver, run_once

        event_log = EventLog()
        result = run_once(
            system,
            RandomDriver(args.seed),
            event_log=event_log,
            fault_seed=args.seed,
            **fault_kwargs,
        )
        log.result(event_log.render())
        log.result(f"outcome: {result.outcome}")
        return 0 if result.outcome != "non-serializable" else 1
    rates = estimate_violation_rate(
        system, runs=args.runs, seed=args.seed, **fault_kwargs
    )
    if args.json:
        verdict = decide_safety(system, want_certificate=False)
        payload = {
            "runs": args.runs,
            "seed": args.seed,
            "rates": rates,
            "verdict": verdict.to_dict(),
            # The simulator saw no violation iff the static decision
            # says safe — false negatives are possible at low run
            # counts, so the bit is reported, not asserted.
            "agreement": (rates["non-serializable"] == 0) == verdict.safe,
        }
        if plan is not None:
            payload["fault_plan"] = args.faults
            payload["deadlock_policy"] = args.deadlock_policy
        log.result(json.dumps(payload, indent=2))
        return 0 if rates["non-serializable"] == 0 else 1
    log.out(f"runs: {args.runs} (seed {args.seed})")
    baseline = ("serializable", "non-serializable", "deadlock")
    extras = sorted(set(rates) - set(baseline))
    for outcome in (*baseline, *extras):
        log.result(f"  {outcome:>18}: {rates[outcome]:7.2%}")
    return 0 if rates["non-serializable"] == 0 else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import chaos_sweep

    plan = _load_plan(args)
    path = args.file
    if path is None and plan is not None:
        path = plan.system_path
    if path is None:
        log.error(
            "error: no system to run — pass a system file or a fault "
            'plan with an embedded "system" path'
        )
        return 2
    log.info(f"loading {path}")
    system = _load_system(path)
    if plan is not None:
        plan.validate_against(system)
    report = chaos_sweep(
        system,
        seeds=args.seeds,
        plan=plan,
        policy=args.deadlock_policy,
        max_retries=args.max_retries,
        fifo_grants=args.fifo,
        seed_base=args.seed_base,
    )
    if args.json:
        log.result(json.dumps(report.to_dict(), indent=2))
    else:
        log.result(report.render())
    return 0 if report.completed == report.seeds else 1


def cmd_plane(args: argparse.Namespace) -> int:
    system = _load_system(args.file)
    first, second = system.pair()
    for tx in (first, second):
        if not tx.is_totally_ordered():
            log.error(
                f"error: {tx.name} is not totally ordered; 'plane' draws "
                "the Fig. 2 picture of total orders"
            )
            return 2
    picture = GeometricPicture(
        first.a_linear_extension(), second.a_linear_extension()
    )
    curve = picture.find_nonserializable_curve()
    log.result(render_plane(picture, curve))
    log.result()
    if curve is None:
        log.result("no separating curve: the pair is safe (Proposition 1)")
        return 0
    log.result("separating curve shown: the pair is UNSAFE (Proposition 1)")
    return 1


def cmd_reduce(args: argparse.Namespace) -> int:
    from .core.reduction import propagate_units, reduce_cnf_to_pair
    from .core import decide_safety_exact
    from .logic import to_restricted_form

    formula = CnfFormula.parse(args.formula)
    payload: dict = {"formula": str(formula)}
    sat = is_satisfiable(formula)
    payload["satisfiable"] = sat
    if not args.json:
        log.out(f"F = {payload['formula']}")
        log.result(f"satisfiable (DPLL): {sat}")
    if not formula.is_restricted_form():
        formula = to_restricted_form(formula)
        payload["restricted_form"] = str(formula)
        if not args.json:
            log.out(f"restricted form: {formula}")
    prepared = propagate_units(formula)
    if isinstance(prepared, bool):
        if args.json:
            payload["settled_by_unit_propagation"] = prepared
            log.result(json.dumps(payload, indent=2))
        else:
            log.result(f"settled by unit propagation: satisfiable={prepared}")
        return 0
    artifacts = reduce_cnf_to_pair(prepared)
    verdict = decide_safety_exact(artifacts.first, artifacts.second)
    agree = (not verdict.safe) == sat
    if args.json:
        payload["entities"] = len(artifacts.database)
        payload["steps_per_transaction"] = len(artifacts.first)
        payload["verdict"] = verdict.to_dict()
        payload["agreement"] = agree
        log.result(json.dumps(payload, indent=2))
        return 0 if agree else 2
    log.out(
        f"reduced pair: {len(artifacts.database)} entities "
        f"(one per site), {len(artifacts.first)} steps per transaction"
    )
    log.result(f"safety: {'SAFE' if verdict.safe else 'UNSAFE'} ({verdict.detail})")
    log.result(f"Theorem 3 check (unsafe ⟺ satisfiable): {agree}")
    return 0 if agree else 2


def cmd_figures(args: argparse.Namespace) -> int:
    from .workloads import figure_1, figure_3, figure_5

    available = {"fig1": figure_1, "fig3": figure_3, "fig5": figure_5}
    names = [args.name] if args.name else sorted(available)
    for name in names:
        if name not in available:
            log.error(
                f"unknown figure {name!r}; choose from {sorted(available)}"
            )
            return 2
        system = available[name]()
        verdict = decide_safety(system, want_certificate=False)
        log.result(f"# {name}: safe={verdict.safe} via {verdict.method}")
        log.result(render_system(system))
    return 0


def cmd_vet(args: argparse.Namespace) -> int:
    from .errors import AdmissionError
    from .service import AdmissionRegistry, VerdictCache

    registry = AdmissionRegistry(
        cache=VerdictCache(args.cache_size),
        cycle_limit=args.cycle_limit,
        admission_timeout=args.admission_timeout,
    )
    decisions = []
    skipped: list[str] = []
    for path in args.files:
        log.info(f"loading {path}")
        system = _load_system(path)
        for transaction in system.transactions:
            if transaction.name in registry:
                suffix = 2
                while f"{transaction.name}@{suffix}" in registry:
                    suffix += 1
                transaction = transaction.renamed(
                    f"{transaction.name}@{suffix}"
                )
            try:
                decisions.append(
                    registry.admit(
                        transaction, want_certificate=args.certificate
                    )
                )
            except AdmissionError as exc:
                # A protocol-level problem with this one transaction
                # (wrong database, undecided cycle enumeration) must
                # not abort the rest of the batch.
                skipped.append(transaction.name)
                log.error(f"SKIP   {transaction.name}  {exc}")
    admitted = sum(decision.admitted for decision in decisions)
    clean = admitted == len(decisions) and not skipped
    if args.json:
        payload = {
            "files": list(args.files),
            "admitted": admitted,
            "rejected": len(decisions) - admitted,
            "skipped": skipped,
            "decisions": [decision.to_dict() for decision in decisions],
            "stats": registry.stats_dict(),
        }
        log.result(json.dumps(payload, indent=2))
        return 0 if clean else 1
    for decision in decisions:
        if decision.admitted:
            log.out(
                f"ADMIT  {decision.name}  "
                f"(trivial={decision.pairs_trivial} "
                f"cached={decision.pairs_from_cache} "
                f"vetted={decision.pairs_vetted} "
                f"cycles={decision.cycles_checked})"
            )
        else:
            log.out(f"REJECT {decision.name}  {decision.verdict.detail}")
            if args.certificate and decision.verdict.certificate is not None:
                log.out(decision.verdict.certificate.describe())
    summary = (
        f"vetted {len(decisions)} transactions: "
        f"{admitted} admitted, {len(decisions) - admitted} rejected"
    )
    if skipped:
        summary += f", {len(skipped)} skipped"
    log.result(summary)
    log.out(registry.stats.render())
    return 0 if clean else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import AdmissionRegistry, VerdictCache

    registry = AdmissionRegistry(
        cache=VerdictCache(args.cache_size),
        cycle_limit=args.cycle_limit,
        admission_timeout=args.admission_timeout,
    )

    def respond(line: str) -> None:
        print(line, flush=True)

    def database_prelude() -> str | None:
        """The registry's database rendered back into DSL, so ADMIT
        requests after the first can omit the ``database`` section."""
        database = registry.database
        if database is None:
            return None
        lines = ["database"]
        for site in range(1, database.sites + 1):
            entities = database.entities_at(site)
            if entities:
                lines.append(f"  site {site}: {' '.join(entities)}")
        return "\n".join(lines)

    respond("READY")
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        command, _, rest = line.partition(" ")
        command = command.upper()
        try:
            if command == "QUIT":
                respond("OK bye")
                break
            if command == "STATS":
                respond("STATS " + json.dumps(registry.stats_dict()))
            elif command == "METRICS":
                respond(
                    "METRICS " + json.dumps(metrics.REGISTRY.to_dict())
                )
            elif command == "EVICT":
                name = rest.strip()
                registry.evict(name)
                respond(f"OK evicted {name}")
            elif command == "ADMIT":
                # The request line carries a DSL document with ';'
                # standing in for newlines; the database section may
                # be omitted once the registry has one.
                text = rest.replace(";", "\n")
                prelude = database_prelude()
                if prelude is not None and not any(
                    line.strip() == "database"
                    for line in text.splitlines()
                ):
                    text = prelude + "\n" + text
                system = parse_system(text)
                admitted_names = []
                rejection = None
                for transaction in system.transactions:
                    decision = registry.admit(
                        transaction, want_certificate=False
                    )
                    if not decision.admitted:
                        rejection = decision
                        break
                    admitted_names.append(decision.name)
                if rejection is not None:
                    respond(
                        f"REJECT {rejection.name} "
                        f"{rejection.verdict.detail}"
                    )
                else:
                    respond(f"OK admitted {' '.join(admitted_names)}")
            else:
                respond(f"ERR unknown command {command!r}")
        except ReproError as exc:
            respond(f"ERR {exc}")
    return 0


def _add_run_flags(command: argparse.ArgumentParser) -> None:
    """The run flags ``cluster run`` and ``arena`` share; read back by
    :func:`_cluster_config`.  (``--max-retries`` is each command's own:
    its default differs.)"""
    command.add_argument(
        "--transport",
        choices=("memory", "tcp"),
        default="memory",
        help="deterministic in-memory queues (default), or real localhost sockets",
    )
    command.add_argument("--seed", type=int, default=0)
    command.add_argument(
        "--no-vet",
        action="store_true",
        help="skip the static admission gateway",
    )
    command.add_argument(
        "--grant-timeout",
        type=int,
        default=None,
        metavar="TICKS",
        help="per-site lock-grant timeout (fallback when probes are lost)",
    )
    command.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request round-trip bound (needed under message drops)",
    )


def _cluster_config(args: argparse.Namespace, **knobs):
    """The flags ``cluster run`` and ``arena`` share, plus *knobs*, as
    the one run configuration."""
    from .cluster import ClusterConfig

    return ClusterConfig(
        transport=args.transport,
        deadlock_policy=args.deadlock_policy,
        max_retries=args.max_retries,
        seed=args.seed,
        vet=not args.no_vet,
        grant_timeout=args.grant_timeout,
        request_timeout=args.request_timeout,
        **knobs,
    )


def cmd_cluster_run(args: argparse.Namespace) -> int:
    from .cluster import ClusterError, run_sync
    from .obs.events import EventLog
    from .obs.insight import postmortem_reason

    traffic = {"rounds": args.rounds, "concurrency": args.concurrency}
    if args.workload is not None:
        if args.file is not None:
            log.error(
                "error: give either a system FILE or --workload SPEC.json, "
                "not both"
            )
            return 2
        if args.replicas > 1:
            # Open-loop arrivals and latency are rejected by the config
            # itself; a closed-loop spec carries neither, so say it here.
            raise ClusterError(
                "--workload drives the plain cluster runtime; "
                "it cannot be combined with --replicas"
            )
        from .workloads.traffic import TrafficSpec, generate_workload

        log.info(f"loading traffic spec {args.workload}")
        spec = TrafficSpec.load(args.workload)
        generated = generate_workload(
            spec, policy=args.workload_policy, seed=args.seed
        )
        system = generated.system
        # The spec owns the arrival process, concurrency and latency
        # matrix; --rounds/--concurrency are ignored for workload runs.
        traffic = generated.cluster_kwargs()
        if args.rounds != 1:
            log.info("--rounds is ignored with --workload (spec sets the size)")
    elif args.file is None:
        log.error("error: need a system FILE (or --workload SPEC.json)")
        return 2
    else:
        log.info(f"loading {args.file}")
        system = _load_system(args.file)
    event_log = EventLog() if args.events else None
    report = run_sync(
        system,
        _cluster_config(
            args,
            fault_plan=_load_plan(args),
            event_log=event_log,
            wire_metrics=args.metrics,
            codec=args.codec,
            batch=args.batch,
            postmortem_dir=args.postmortem,
            replicas=args.replicas if args.replicas > 1 else None,
            lease_ticks=args.lease_ticks,
            **traffic,
        ),
    )
    if args.json:
        log.result(json.dumps(report.to_dict(), indent=2))
    else:
        log.result(report.render())
    if event_log is not None and not args.json:
        log.result()
        for event in event_log:
            log.result(str(event))
    return 0 if postmortem_reason(report) is None else 1


def cmd_arena(args: argparse.Namespace) -> int:
    import os

    from .arena import run_arena
    from .workloads.traffic import TrafficSpec

    specs = []
    for path in args.workload:
        log.info(f"loading traffic spec {path}")
        specs.append(TrafficSpec.load(path))
    policies = args.policy or ["2pl", "tree"]
    fault_plans: list = []
    for label in args.fault_plan or ["none"]:
        if label == "none":
            fault_plans.append(("none", None))
        else:
            from .faults import FaultPlan

            log.info(f"loading fault plan {label}")
            name = os.path.splitext(os.path.basename(label))[0]
            fault_plans.append((name, FaultPlan.load(label)))

    report = run_arena(
        specs,
        policies=policies,
        fault_plans=fault_plans,
        seed=args.seed,
        config=_cluster_config(args),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        log.info(f"report written to {args.out}")
    if args.json:
        log.result(json.dumps(report.to_dict(), indent=2))
    else:
        log.result(report.render())
    # Aborts under overload or faults are performance outcomes; the
    # arena fails only when a committed history breaks the audit.
    return 0 if report.all_ok else 1


def _peer_addresses(specs: list[str] | None) -> dict[int, tuple[str, int]] | None:
    """``--peer ADDR=HOST:PORT`` flags as an address map; ``None``,
    after saying why, when one is malformed."""
    addresses: dict[int, tuple[str, int]] = {}
    for spec in specs or ():
        site_text, _, host_port = spec.partition("=")
        host, _, port_text = host_port.rpartition(":")
        try:
            addresses[int(site_text)] = (host, int(port_text))
        except ValueError:
            log.error(f"error: bad --peer {spec!r} (want ADDR=HOST:PORT)")
            return None
    return addresses


def cmd_cluster_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .cluster import SiteServer, TcpTransport
    from .obs import distributed

    if args.replica_index >= args.replicas:
        log.error(
            f"error: --replica-index {args.replica_index} out of range "
            f"for --replicas {args.replicas}"
        )
        return 2

    addresses = _peer_addresses(args.peer)
    if addresses is None:
        return 2

    if args.replicas > 1:
        from .replica import replica_address

        address = replica_address(args.site, args.replica_index)
    else:
        address = args.site
    addresses[address] = (args.host, args.port)

    if args.metrics:
        # Wire-stage histograms for this server's frames; the registry
        # dump on exit (main's --metrics handling) prints them.
        distributed.WIRE.enable_metrics()

    async def serve() -> None:
        transport = TcpTransport(addresses)
        if args.replicas > 1:
            from .replica import ReplicaGroup, ReplicaServer

            group = ReplicaGroup(
                args.site, args.replicas, lease_ticks=args.lease_ticks
            )
            server = ReplicaServer(
                group,
                args.replica_index,
                transport=transport,
                peers=tuple(sorted(addresses)),
                deadlock_policy=args.deadlock_policy,
                grant_timeout=args.grant_timeout,
                seed=args.seed,
            )
        else:
            server = SiteServer(
                args.site,
                transport=transport,
                peers=tuple(sorted(addresses)),
                deadlock_policy=args.deadlock_policy,
                grant_timeout=args.grant_timeout,
                seed=args.seed,
            )
        await server.start()
        bound = transport.addresses[address]
        role = (
            f"site {args.site}"
            if args.replicas == 1
            else f"site {args.site} replica {args.replica_index} "
            f"(address {address})"
        )
        log.result(f"{role} listening on {bound[0]}:{bound[1]}")
        try:
            while server.running:
                await asyncio.sleep(0.2)
        finally:
            await server.stop()
            await transport.close()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        log.info("interrupted")
    return 0


def cmd_cluster_status(args: argparse.Namespace) -> int:
    import asyncio

    from .cluster import TcpTransport
    from .obs.insight import probe_sites

    addresses = _peer_addresses(args.peer)
    if addresses is None:
        return 2
    if not addresses:
        log.error("error: need at least one --peer ADDR=HOST:PORT to probe")
        return 2

    async def probe():
        transport = TcpTransport(addresses)
        try:
            return await probe_sites(
                transport, sorted(addresses), timeout=args.timeout
            )
        finally:
            await transport.close()

    status = asyncio.run(probe())
    if args.json:
        log.result(json.dumps(status.to_dict(), indent=2))
    else:
        log.result(status.render())
    if status.errors:
        return 2
    return 1 if status.cycles else 0


def cmd_postmortem(args: argparse.Namespace) -> int:
    from .obs.report import render_postmortem

    try:
        log.result(render_postmortem(args.directory, tail=args.tail))
    except ValueError as exc:
        log.error(f"error: {exc}")
        return 2
    return 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    from .obs.report import summarize_files

    try:
        output = summarize_files(args.file, limit=args.limit)
    except ValueError as exc:
        log.error(f"error: {exc}")
        return 2
    log.result(output)
    return 0


def _count(floor: int = 0):
    """An argparse type for a count: an integer no smaller than *floor*;
    anything else is a usage error."""

    def count(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Safety of distributed locked transaction systems "
            "(Kanellakis & Papadimitriou, PODS 1982)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more narration (-vv for diagnostics)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="less narration (-qq silences even results)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit output as JSON-lines log records on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace",
            metavar="FILE",
            default=None,
            help="record a JSONL span trace into FILE",
        )
        command.add_argument(
            "--metrics",
            action="store_true",
            help="dump the metrics registry to stderr on exit "
            "(Prometheus text format)",
        )

    analyze = sub.add_parser("analyze", help="decide safety of a system file")
    analyze.add_argument("file")
    analyze.add_argument("--certificate", action="store_true")
    analyze.add_argument("--exhaustive", action="store_true")
    analyze.add_argument("--dot", action="store_true")
    analyze.add_argument("--json", action="store_true")
    add_obs_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    def add_fault_flags(command: argparse.ArgumentParser) -> None:
        from .faults import POLICIES

        command.add_argument(
            "--faults",
            metavar="PLAN.json",
            default=None,
            help="inject the seeded fault plan in PLAN.json",
        )
        command.add_argument(
            "--deadlock-policy",
            choices=(*POLICIES, "none"),
            default=None,
            help="resolve detected deadlocks by rolling back a victim "
            "(default: report the deadlock and stop)",
        )
        command.add_argument(
            "--max-retries",
            type=_count(),
            default=3,
            help="abort-and-requeue budget per transaction (default 3)",
        )

    simulate = sub.add_parser("simulate", help="Monte-Carlo execution")
    simulate.add_argument("file")
    simulate.add_argument("--runs", type=_count(1), default=1000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--json", action="store_true")
    simulate.add_argument(
        "--events",
        action="store_true",
        help="run once and print the lock/step event timeline",
    )
    add_fault_flags(simulate)
    add_obs_flags(simulate)
    simulate.set_defaults(func=cmd_simulate)

    chaos = sub.add_parser(
        "chaos", help="seed-sweep fault injection and recovery statistics"
    )
    chaos.add_argument(
        "file",
        nargs="?",
        default=None,
        help="system file (optional when the plan embeds one)",
    )
    chaos.add_argument("--seeds", type=_count(1), default=50)
    chaos.add_argument(
        "--seed-base", type=int, default=0, help="first driver seed"
    )
    chaos.add_argument(
        "--fifo",
        action="store_true",
        help="grant lock queues first-come-first-served",
    )
    chaos.add_argument("--json", action="store_true")
    add_fault_flags(chaos)
    chaos.set_defaults(func=cmd_chaos, deadlock_policy="abort-youngest")
    add_obs_flags(chaos)

    plane = sub.add_parser("plane", help="render the coordinated plane")
    plane.add_argument("file")
    plane.set_defaults(func=cmd_plane)

    reduce_cmd = sub.add_parser("reduce", help="Theorem 3 on a CNF formula")
    reduce_cmd.add_argument("formula")
    reduce_cmd.add_argument("--json", action="store_true")
    reduce_cmd.set_defaults(func=cmd_reduce)

    figures = sub.add_parser("figures", help="print the paper's systems")
    figures.add_argument("name", nargs="?")
    figures.set_defaults(func=cmd_figures)

    vet = sub.add_parser(
        "vet", help="batch-vet system files through one admission registry"
    )
    vet.add_argument("files", nargs="+")
    vet.add_argument("--cache-size", type=int, default=65536)
    vet.add_argument("--cycle-limit", type=int, default=None)
    vet.add_argument("--certificate", action="store_true")
    vet.add_argument("--json", action="store_true")

    def add_degradation_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--admission-timeout",
            type=float,
            metavar="SECONDS",
            default=None,
            help="per-admission pair-vetting budget (default: none)",
        )

    add_degradation_flags(vet)
    add_obs_flags(vet)
    vet.set_defaults(func=cmd_vet)

    cluster = sub.add_parser(
        "cluster",
        help="the networked multi-site runtime (repro.cluster)",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    cluster_run = cluster_sub.add_parser(
        "run", help="boot an in-process cluster and run a system through it"
    )
    cluster_run.add_argument(
        "file",
        nargs="?",
        default=None,
        help="system description (omit when using --workload)",
    )
    cluster_run.add_argument(
        "--workload",
        metavar="SPEC.json",
        default=None,
        help="generate the system from a traffic spec "
        "(repro.workloads.traffic) instead of reading a system FILE; "
        "the spec's arrival process, concurrency and latency matrix "
        "drive the run",
    )
    cluster_run.add_argument(
        "--workload-policy",
        choices=("2pl", "tree", "vetted-optimal"),
        default="2pl",
        help="locking policy imposed on --workload transactions "
        "(default 2pl)",
    )
    cluster_run.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="instances of every transaction to run (default 1)",
    )
    cluster_run.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="coordinators running at once (default 8)",
    )
    cluster_run.add_argument(
        "--replicas",
        type=_count(1),
        default=1,
        metavar="N",
        help="replicas per logical site; >1 runs the replicated "
        "runtime (repro.replica) with leased leaders and failover",
    )
    cluster_run.add_argument(
        "--lease-ticks",
        type=int,
        default=64,
        metavar="TICKS",
        help="leader lease length in logical clock ticks (default 64; "
        "replicated runs only)",
    )
    _add_run_flags(cluster_run)
    cluster_run.add_argument(
        "--codec",
        choices=("json", "binary"),
        default="json",
        help="wire codec every connection of the run sends with (default json)",
    )
    batch_group = cluster_run.add_mutually_exclusive_group()
    batch_group.add_argument(
        "--batch",
        dest="batch",
        action="store_true",
        help="pipeline all currently-eligible same-site steps in one "
        "batch frame per round trip",
    )
    batch_group.add_argument(
        "--no-batch",
        dest="batch",
        action="store_false",
        help="one request frame per step (the default)",
    )
    cluster_run.add_argument(
        "--events",
        action="store_true",
        help="collect and print the cluster event timeline",
    )
    cluster_run.add_argument(
        "--postmortem",
        metavar="DIR",
        default=None,
        help="record the run's recent event timeline and, when the run "
        "ends non-serializable, with a partial commit, with an incomplete "
        "audit or with a transaction uncommitted (exit 1), write a "
        "post-mortem bundle (report, events, traces) into DIR; render it "
        "with `repro postmortem DIR`",
    )
    cluster_run.add_argument("--json", action="store_true")
    add_fault_flags(cluster_run)
    add_obs_flags(cluster_run)
    cluster_run.set_defaults(
        func=cmd_cluster_run, deadlock_policy="abort-youngest", batch=False
    )

    arena = sub.add_parser(
        "arena",
        help="sweep a policy × workload × fault-plan matrix (repro.arena)",
    )
    arena.add_argument(
        "--workload",
        action="append",
        required=True,
        metavar="SPEC.json",
        help="traffic spec to include (repeatable)",
    )
    arena.add_argument(
        "--policy",
        action="append",
        choices=("2pl", "tree", "vetted-optimal"),
        help="locking policy to include (repeatable; default: 2pl, tree)",
    )
    arena.add_argument(
        "--fault-plan",
        action="append",
        metavar="PLAN.json",
        help="fault plan to include, or the literal 'none' for a "
        "fault-free column (repeatable; default: none)",
    )
    _add_run_flags(arena)
    arena.add_argument(
        "--max-retries",
        type=_count(),
        default=5,
        help="abort-and-retry budget per transaction (default 5)",
    )
    arena.add_argument("--json", action="store_true")
    arena.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the JSON report to FILE",
    )
    arena.set_defaults(func=cmd_arena, deadlock_policy="abort-youngest")

    cluster_serve = cluster_sub.add_parser(
        "serve", help="run one TCP site server in the foreground"
    )
    cluster_serve.add_argument("--site", type=int, required=True)
    cluster_serve.add_argument("--host", default="127.0.0.1")
    cluster_serve.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    cluster_serve.add_argument(
        "--peer",
        action="append",
        metavar="ADDR=HOST:PORT",
        help="address of another server (repeat per peer; needed for "
        "deadlock probes; with --replicas, ADDR is the replica "
        "address site*1000+index)",
    )
    cluster_serve.add_argument(
        "--replicas",
        type=_count(1),
        default=1,
        metavar="N",
        help="size of this site's replica group (serve one replica "
        "of it; default 1 = plain site server)",
    )
    cluster_serve.add_argument(
        "--replica-index",
        type=_count(),
        default=0,
        metavar="I",
        help="which replica of the group this process is (default 0)",
    )
    cluster_serve.add_argument(
        "--lease-ticks", type=int, default=64, metavar="TICKS"
    )
    cluster_serve.add_argument("--seed", type=int, default=0)
    cluster_serve.add_argument(
        "--grant-timeout", type=int, default=None, metavar="TICKS"
    )
    from .faults import POLICIES as _policies

    cluster_serve.add_argument(
        "--deadlock-policy",
        choices=(*_policies, "none"),
        default="abort-youngest",
    )
    add_obs_flags(cluster_serve)
    cluster_serve.set_defaults(func=cmd_cluster_serve)

    cluster_status = cluster_sub.add_parser(
        "status",
        help="probe live sites and stitch the global wait-for graph",
    )
    cluster_status.add_argument(
        "--peer",
        action="append",
        metavar="ADDR=HOST:PORT",
        help="a site (or replica address) to probe (repeatable)",
    )
    cluster_status.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="seconds to wait for each site's status reply",
    )
    cluster_status.add_argument("--json", action="store_true")
    cluster_status.set_defaults(func=cmd_cluster_status)

    postmortem = sub.add_parser(
        "postmortem",
        help="render a post-mortem bundle written by a bad cluster run",
    )
    postmortem.add_argument("directory")
    postmortem.add_argument(
        "--tail",
        type=_count(),
        default=20,
        help="timeline events to show (newest last)",
    )
    postmortem.set_defaults(func=cmd_postmortem)

    trace_report = sub.add_parser(
        "trace-report",
        help="summarize --trace span files (merging one per process)",
    )
    trace_report.add_argument("file", nargs="+")
    trace_report.add_argument(
        "--limit",
        type=_count(),
        default=None,
        help="show only the top N spans by self time",
    )
    trace_report.set_defaults(func=cmd_trace_report)

    serve = sub.add_parser(
        "serve", help="line-oriented admission request loop on stdin"
    )
    serve.add_argument("--cache-size", type=int, default=65536)
    serve.add_argument("--cycle-limit", type=int, default=None)
    add_degradation_flags(serve)
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    log.set_verbosity(args.verbose - args.quiet)
    if args.log_json:
        log.use_json_logging()
    else:
        log.use_plain_output()
    trace_file = getattr(args, "trace", None)
    if trace_file:
        trace.start_tracing(trace_file)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        log.error(f"error: {exc}")
        return 2
    except ReproError as exc:
        log.error(f"error: {exc}")
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe early.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    finally:
        if trace_file:
            trace.stop_tracing()
            log.info(f"trace written to {trace_file}")
        if getattr(args, "metrics", False):
            print(metrics.REGISTRY.to_prometheus(), file=sys.stderr, end="")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
