//go:build !amd64 || amd64.v3

package golden

// exactBits: this target may fuse multiply-adds, so floats compare
// within Tolerance.
const exactBits = false
