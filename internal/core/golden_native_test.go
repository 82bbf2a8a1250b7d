//go:build linux && amd64 && !amd64.v2

package core_test

func init() { goldenNative = true }
