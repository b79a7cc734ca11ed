"""jetvar benchmark harness: workloads, closed-loop driver, tracing."""
