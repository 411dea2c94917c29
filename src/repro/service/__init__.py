"""Always-on evaluation service (ROADMAP item 6).

``repro serve`` turns the batch CLI into a warm metric-serving HTTP
API: resident :class:`~repro.experiments.runner.ExperimentContext`\\ s
per (scale, seed, ixp), a read-through content-addressed result cache
(sqlite by default, safe under concurrent writers), single-flight
dedupe of concurrent identical scenarios, and chunked NDJSON streaming
of rollout-chain progress.  Pure stdlib — :mod:`repro.service.http` is
the whole web layer.

The service degrades instead of falling over: admission control sheds
cold misses with 429 + Retry-After when the evaluation budget is
saturated, per-request deadlines detach waiters without killing shared
work, a circuit breaker (:class:`CircuitBreaker`) fences off a sick
store while warm cached hashes keep serving, and jobs are durable and
cancellable.  ``/v1/healthz`` is liveness; ``/v1/readyz`` is
readiness.
"""

from .app import CircuitBreaker, Service, StoreUnavailable, create_server, serve
from .http import HTTPError, HTTPServer, Request, Response, Router
from .jobs import Job, JobManager

__all__ = [
    "CircuitBreaker",
    "Service",
    "StoreUnavailable",
    "create_server",
    "serve",
    "HTTPError",
    "HTTPServer",
    "Request",
    "Response",
    "Router",
    "Job",
    "JobManager",
]
