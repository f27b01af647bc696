"""The repo's one repeatable benchmark: six named workloads, end-to-end
metrics with fixed regression bounds, and a per-layer ledger timed from
outside the program.  See README.md in this directory."""
