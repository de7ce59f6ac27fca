//go:build !linux

package main

import "time"

// fsType is only implemented on Linux.
func fsType(string) string { return "unknown" }

// procCPU is only measured on Linux.
func procCPU() time.Duration { return 0 }

// hostCPU is only measured on Linux.
type hostCPU struct{ steal, total uint64 }

func readHostCPU() hostCPU { return hostCPU{} }
