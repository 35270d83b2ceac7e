"""Tracing, mining, and scoring of bug-inducing commits."""
