"""orc_ray benchmark package; ``run.py`` is the entry point."""
