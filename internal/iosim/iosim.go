// Package iosim simulates storage devices and clusters on a virtual clock.
//
// The paper's speedups are a bandwidth phenomenon: a training cluster whose
// aggregate GPU consumption rate exceeds the storage system's delivery rate
// stalls, and reducing bytes-per-image converts directly into throughput
// (Appendix A.2). This package reproduces that mechanism — devices with a
// positioning cost and a sequential bandwidth, combined into a Ceph-like
// striped cluster — without needing the paper's 16-node testbed. Virtual
// time is float64 seconds.
package iosim

import "fmt"

// DeviceSpec parameterizes one storage device.
type DeviceSpec struct {
	// Name labels the device in reports.
	Name string
	// BandwidthBps is the sequential transfer rate in bytes/second.
	BandwidthBps float64
	// SeekSec is the per-request positioning cost in seconds (seek +
	// rotational latency for HDDs; queue/firmware latency for SSDs).
	SeekSec float64
}

// Reference device profiles. HDD7200 matches the paper's 4TB 7200RPM drives
// (~160 MB/s outer-track sequential, ~8 ms positioning); ClusterSSD matches
// the §A.5 microbenchmark SSD (~400 MB/s).
var (
	HDD7200 = DeviceSpec{Name: "hdd-7200rpm", BandwidthBps: 160e6, SeekSec: 8e-3}
	SATASSD = DeviceSpec{Name: "sata-ssd", BandwidthBps: 400e6, SeekSec: 60e-6}
	// RAMDisk approximates an in-memory dataset: effectively no seek, DRAM
	// bandwidth. Used to model the paper's "from RAM" ceiling rates.
	RAMDisk = DeviceSpec{Name: "ramdisk", BandwidthBps: 10e9, SeekSec: 1e-7}
)

// Device is a single simulated device serving requests FCFS.
type Device struct {
	Spec DeviceSpec

	nextFree  float64
	busySec   float64
	bytesRead int64
	requests  int64
}

// NewDevice returns an idle device.
func NewDevice(spec DeviceSpec) *Device {
	if spec.BandwidthBps <= 0 {
		panic("iosim: non-positive bandwidth")
	}
	return &Device{Spec: spec}
}

// Read services a request of size bytes arriving at time `at`, returning the
// completion time. Requests queue FCFS: service begins at max(at, device
// free time).
func (d *Device) Read(size int64, at float64) float64 {
	if size < 0 {
		size = 0
	}
	start := at
	if d.nextFree > start {
		start = d.nextFree
	}
	service := d.Spec.SeekSec + float64(size)/d.Spec.BandwidthBps
	done := start + service
	d.nextFree = done
	d.busySec += service
	d.bytesRead += size
	d.requests++
	return done
}

// Stats summarizes a device's activity.
type Stats struct {
	BusySec   float64
	BytesRead int64
	Requests  int64
}

// Stats returns the device's accumulated counters.
func (d *Device) Stats() Stats {
	return Stats{BusySec: d.busySec, BytesRead: d.bytesRead, Requests: d.requests}
}

// Reset returns the device to idle and clears counters.
func (d *Device) Reset() { *d = Device{Spec: d.Spec} }

// Cluster models a distributed object store: records are placed across
// devices round-robin (the role of Ceph's OSD placement) and each record
// read is a sequential request to its home device.
type Cluster struct {
	devices []*Device
}

// NewCluster builds a cluster of n identical devices.
func NewCluster(spec DeviceSpec, n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("iosim: cluster needs at least one device")
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		c.devices = append(c.devices, NewDevice(spec))
	}
	return c, nil
}

// AggregateBandwidth returns the cluster's peak sequential bandwidth.
func (c *Cluster) AggregateBandwidth() float64 {
	var sum float64
	for _, d := range c.devices {
		sum += d.Spec.BandwidthBps
	}
	return sum
}

// ReadRecord reads `size` bytes of record `recordIdx` starting at time `at`
// and returns the completion time. Placement is deterministic round-robin.
func (c *Cluster) ReadRecord(recordIdx int, size int64, at float64) float64 {
	if recordIdx < 0 {
		recordIdx = -recordIdx
	}
	return c.devices[recordIdx%len(c.devices)].Read(size, at)
}

// Stats sums the per-device counters.
func (c *Cluster) Stats() Stats {
	var s Stats
	for _, d := range c.devices {
		ds := d.Stats()
		s.BusySec += ds.BusySec
		s.BytesRead += ds.BytesRead
		s.Requests += ds.Requests
	}
	return s
}

// Reset idles every device.
func (c *Cluster) Reset() {
	for _, d := range c.devices {
		d.Reset()
	}
}
