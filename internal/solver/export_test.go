package solver

// EntropyRegularizedRef exposes the reference forward–backward solver to
// the scenario-level oracle test in package solver_test, which needs
// scenario builders that themselves import this package.
var EntropyRegularizedRef = entropyRegularizedRef
