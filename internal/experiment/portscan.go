package experiment

import (
	"net/netip"
	"sort"

	"v6lab/internal/device"
	"v6lab/internal/scan"
)

// DeviceScan holds one device's per-family open-port findings.
type DeviceScan struct {
	Device    string
	OpenTCPv4 []uint16
	OpenTCPv6 []uint16
	V4OnlyTCP []uint16
	V6OnlyTCP []uint16
	V6Addrs   []netip.Addr
}

// ScanReport aggregates the §5.4.2 results.
type ScanReport struct {
	Devices []DeviceScan
	// DevicesWithV4OnlyPorts counts devices exposing services over IPv4
	// that are absent over IPv6.
	DevicesWithV4OnlyPorts int
	// DevicesWithV6OnlyPorts counts the opposite (the Samsung Fridge).
	DevicesWithV6OnlyPorts int
}

// ProbePorts is the targeted probe list the harness uses: the union of
// every service port any device exposes plus common closed controls. The
// paper scans 1-65535 per address; Scanner supports arbitrary ranges, but
// the study uses the reduced deterministic set to keep frame counts sane —
// the per-family *differences* the paper reports are unaffected.
func ProbePorts(profiles []*device.Profile) []uint16 {
	set := map[uint16]bool{22: true, 23: true, 80: true, 443: true, 1883: true, 5000: true}
	for _, p := range profiles {
		for _, list := range [][]uint16{p.OpenTCPv4, p.OpenTCPv6} {
			for _, port := range list {
				set[port] = true
			}
		}
	}
	ports := make([]uint16, 0, len(set))
	for p := range set {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	return ports
}

// RunPortScan boots a dual-stack network and scans every device over both
// families, harvesting IPv6 addresses via all-nodes echo and the router's
// neighbor table exactly as §4.3 describes.
func (st *Study) RunPortScan() (*ScanReport, error) {
	// Dual-stack (stateful): everything live. The scan measures exposure,
	// not impairment, so the home boots unfaulted even in a faulted study.
	h := st.NewHome(Configs[len(Configs)-1], nil, "")
	net, rt := h.Net, h.Router
	sc := scan.New()
	sc.Attach(net)
	if err := h.Boot(); err != nil {
		return nil, err
	}

	// Address harvesting: all-nodes echo + router neighbor table.
	live, err := sc.DiscoverV6(net)
	if err != nil {
		return nil, err
	}
	for a, m := range rt.Neighbors {
		if _, ok := live[a]; !ok {
			live[a] = m
		}
	}
	v6ByMAC := map[string][]netip.Addr{}
	for a, m := range live {
		v6ByMAC[m.String()] = append(v6ByMAC[m.String()], a)
	}

	ports := ProbePorts(st.Profiles)
	report := &ScanReport{}
	for _, s := range st.Stacks {
		ds := DeviceScan{Device: s.Prof.Name}
		// IPv4 scan against the DHCP lease.
		if lease, ok := rt.LeaseFor(s.MAC); ok {
			open, err := sc.TCPScan(net, lease, s.MAC, ports)
			if err != nil {
				return nil, err
			}
			ds.OpenTCPv4 = open
		}
		// IPv6 scan against every harvested address.
		addrs := v6ByMAC[s.MAC.String()]
		sort.Slice(addrs, func(i, j int) bool { return addrs[i].String() < addrs[j].String() })
		ds.V6Addrs = addrs
		openV6 := map[uint16]bool{}
		for _, a := range addrs {
			open, err := sc.TCPScan(net, a, s.MAC, ports)
			if err != nil {
				return nil, err
			}
			for _, p := range open {
				openV6[p] = true
			}
		}
		for p := range openV6 {
			ds.OpenTCPv6 = append(ds.OpenTCPv6, p)
		}
		sort.Slice(ds.OpenTCPv6, func(i, j int) bool { return ds.OpenTCPv6[i] < ds.OpenTCPv6[j] })

		ds.V4OnlyTCP = diffPorts(ds.OpenTCPv4, ds.OpenTCPv6)
		ds.V6OnlyTCP = diffPorts(ds.OpenTCPv6, ds.OpenTCPv4)
		if len(ds.V4OnlyTCP) > 0 {
			report.DevicesWithV4OnlyPorts++
		}
		if len(ds.V6OnlyTCP) > 0 {
			report.DevicesWithV6OnlyPorts++
		}
		report.Devices = append(report.Devices, ds)
	}
	return report, nil
}

// diffPorts returns ports in a but not in b.
func diffPorts(a, b []uint16) []uint16 {
	inB := map[uint16]bool{}
	for _, p := range b {
		inB[p] = true
	}
	var out []uint16
	for _, p := range a {
		if !inB[p] {
			out = append(out, p)
		}
	}
	return out
}

// ScanFor returns the scan row for a device name, or nil.
func (r *ScanReport) ScanFor(name string) *DeviceScan {
	for i := range r.Devices {
		if r.Devices[i].Device == name {
			return &r.Devices[i]
		}
	}
	return nil
}
