package a

//lint:allow nodeterminism
var missingReason = 1

//lint:allow madeupcheck because reasons
var unknownCheck = 2

//lint:allow
var missingEverything = 3

//lint:allow floateq fixture: well-formed, but floateq ran and it suppresses nothing
var wellFormed = 4

func exact(a, b float64) bool {
	return a == b //lint:allow floateq fixture: a live directive is not reported
}
