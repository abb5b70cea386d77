// Dual-stack comparison: the paper's RQ3 analysis — how destinations and
// traffic volume shift between IPv4 and IPv6 when both are available
// (Tables 4 and 9, Figure 4), plus the per-experiment pcaps for external
// tooling.
package main

import (
	"fmt"
	"log"
	"os"

	"v6lab"
)

func main() {
	dir := "captures"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	lab := v6lab.New(v6lab.WithPcaps(v6lab.PcapDir(dir)))
	if err := lab.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Print(lab.Report(v6lab.Table4))
	fmt.Println()
	fmt.Print(lab.Report(v6lab.Table9))
	fmt.Println()
	fmt.Print(lab.Report(v6lab.Figure4))
	fmt.Printf("\nper-experiment pcaps written to %s/ (readable with tcpdump/wireshark)\n", dir)
}
