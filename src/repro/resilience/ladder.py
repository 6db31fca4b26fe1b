"""The degradation ladder's rungs (:mod:`repro.resilience.budget`),
best to worst: all that scheduling one block needs of the budgets."""

STEP_OPTIMAL = "optimal-search"
STEP_CURTAILED = "curtailed-search"
STEP_SPLIT = "split-windows"
STEP_LIST_SEED = "list-seed"
LADDER = (STEP_OPTIMAL, STEP_CURTAILED, STEP_SPLIT, STEP_LIST_SEED)
