package xmltree

// DiffWalks is exported for the external tests, which exercise the
// internal/gen families (gen imports this package).
var DiffWalks = diffWalks
