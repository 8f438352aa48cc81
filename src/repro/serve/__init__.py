"""Simulation-as-a-service: the ``repro serve`` daemon and its clients.

* :mod:`repro.serve.protocol` — the HTTP/JSON API schema: job
  requests, job states, and the canonical (byte-identical) encodings
  of results and event streams.
* :mod:`repro.serve.http` — a minimal stdlib HTTP/1.1 layer over
  asyncio streams (no new runtime dependencies).
* :mod:`repro.serve.pool` — the persistent worker pool: each worker
  loads compiled artifacts and decoded programs once and keeps them
  hot across jobs.
* :mod:`repro.serve.daemon` — the asyncio daemon: admission control,
  same-workload batching, single-flight compilation, graceful drain.
* :mod:`repro.serve.client` — a small blocking HTTP client used by
  tests, CI, and the load generator.
* :mod:`repro.serve.loadgen` — ``repro loadgen``: drives the daemon
  at a target rate and reports p50/p95/p99 latency percentiles.

See ``docs/serving.md`` for the API and deployment guide.
"""
