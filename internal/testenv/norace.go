//go:build !race

package testenv

const Race = false
