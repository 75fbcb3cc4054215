"""End-to-end benchmark of the simulator: interactive stepping at Table I
load, time travel, co-design sweeps and the edit loop, with a traced
per-layer breakdown.  See README.md in this directory."""
