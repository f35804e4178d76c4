"""The repository's benchmark: one out-of-process harness over the
paper's R -> S schema.  See README.md here and BENCHMARK.json at the root."""
