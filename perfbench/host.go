package main

import (
	"os"
	"path/filepath"
	"strings"
)

// cacheSizes reads the CPU cache sizes the kernel reports for cpu0, keyed
// by level and type (e.g. "L2", "L1d"); empty where sysfs is missing.
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		typ := readTrim(filepath.Join(d, "type"))
		size := readTrim(filepath.Join(d, "size"))
		if level == "" || size == "" {
			continue
		}
		key := "L" + level
		switch typ {
		case "Data":
			key += "d"
		case "Instruction":
			key += "i"
		}
		out[key] = size
	}
	return out
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}
