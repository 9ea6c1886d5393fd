"""Fleet benchmark: scaled scenario workloads streamed through real backends."""
