"""Memory-resident value synchronization (the paper's contribution)."""
