package metrics

// The external reference test (reference_test.go) builds its PR curves
// with this type.
type PRPoint = prPoint
