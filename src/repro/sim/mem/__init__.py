"""Memory-system timing models: caches, DRAM, classic and Ruby systems
(:mod:`~repro.sim.mem.cache`, :mod:`~repro.sim.mem.hierarchy`)."""
