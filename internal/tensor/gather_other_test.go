//go:build !amd64

package tensor

// vectorGathers is empty: off amd64 the gather runs the Go loops only.
var vectorGathers []gatherPath
