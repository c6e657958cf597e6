package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo holds the CPUID/XGETBV probe to the flags Linux
// reports for the first CPU in /proc/cpuinfo. The kernel lists a flag only
// when it also enables the register state the extension needs, which is
// what the probe reads XCR0 for: AVX2 is the avx2 flag, AVX512 is avx512f,
// avx512vl and popcnt. It skips off linux/amd64 and where the file cannot
// be read.
func TestProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("no /proc/cpuinfo flags on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	if want := flags["avx2"]; AVX2 != want {
		t.Errorf("AVX2 = %v, /proc/cpuinfo avx2 flag %v", AVX2, want)
	}
	if want := flags["avx512f"] && flags["avx512vl"] && flags["popcnt"]; AVX512 != want {
		t.Errorf("AVX512 = %v, /proc/cpuinfo avx512f && avx512vl && popcnt %v", AVX512, want)
	}
	t.Logf("AVX2 %v, AVX512 %v", AVX2, AVX512)
}
