"""Framework-specific pre/post-processing."""
