//go:build amd64 && !amd64.v3

package golden

// exactBits: amd64 below GOAMD64=v3 never fuses a multiply-add, so
// every float result is reproducible bit for bit.
const exactBits = true
