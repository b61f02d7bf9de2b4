package iosim

import (
	"math"
	"testing"
)

func TestDeviceSequentialRead(t *testing.T) {
	d := NewDevice(DeviceSpec{Name: "t", BandwidthBps: 100e6, SeekSec: 10e-3})
	done := d.Read(100e6, 0)
	want := 10e-3 + 1.0
	if math.Abs(done-want) > 1e-9 {
		t.Errorf("done = %v, want %v", done, want)
	}
}

func TestDeviceFCFSQueueing(t *testing.T) {
	d := NewDevice(DeviceSpec{BandwidthBps: 100e6, SeekSec: 0})
	// Two requests arriving at t=0 serialize.
	d1 := d.Read(50e6, 0) // 0.5s
	d2 := d.Read(50e6, 0) // queued behind: completes at 1.0
	if math.Abs(d1-0.5) > 1e-9 || math.Abs(d2-1.0) > 1e-9 {
		t.Errorf("d1=%v d2=%v", d1, d2)
	}
	// A request arriving after the device idles starts immediately.
	d3 := d.Read(10e6, 5)
	if math.Abs(d3-5.1) > 1e-9 {
		t.Errorf("d3 = %v, want 5.1", d3)
	}
}

func TestDeviceStats(t *testing.T) {
	d := NewDevice(SATASSD)
	d.Read(1000, 0)
	d.Read(2000, 0)
	s := d.Stats()
	if s.BytesRead != 3000 || s.Requests != 2 {
		t.Errorf("stats = %+v", s)
	}
	d.Reset()
	if d.Stats().Requests != 0 {
		t.Error("reset did not clear counters")
	}
}

func TestClusterPlacementAndAggregate(t *testing.T) {
	c, err := NewCluster(DeviceSpec{BandwidthBps: 100e6, SeekSec: 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.AggregateBandwidth() != 400e6 {
		t.Errorf("aggregate = %v", c.AggregateBandwidth())
	}
	// Records 0..3 land on distinct devices: all 4 reads overlap fully.
	var last float64
	for i := 0; i < 4; i++ {
		last = c.ReadRecord(i, 100e6, 0)
	}
	if math.Abs(last-1.0) > 1e-9 {
		t.Errorf("parallel reads finished at %v, want 1.0", last)
	}
	// Record 4 shares device 0 with record 0: it queues.
	if got := c.ReadRecord(4, 100e6, 0); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("queued read finished at %v, want 2.0", got)
	}
}

func TestNewClusterRejectsZeroDevices(t *testing.T) {
	if _, err := NewCluster(SATASSD, 0); err == nil {
		t.Error("zero-device cluster accepted")
	}
}

func TestSeekDominatesSmallReads(t *testing.T) {
	// The File-per-Image pathology: with many tiny reads, an HDD's seek
	// time dominates and effective bandwidth collapses.
	hdd := NewDevice(HDD7200)
	var done float64
	small := int64(100 << 10) // 100 KiB images
	for i := 0; i < 100; i++ {
		done = hdd.Read(small, done)
	}
	effective := float64(100*small) / done
	if effective > 0.5*HDD7200.BandwidthBps {
		t.Errorf("small random reads achieved %.0f B/s; seek cost should halve bandwidth", effective)
	}
	// Large sequential record reads approach full bandwidth.
	hdd.Reset()
	done = 0
	big := int64(100 << 20)
	for i := 0; i < 5; i++ {
		done = hdd.Read(big, done)
	}
	effective = float64(5*big) / done
	if effective < 0.95*HDD7200.BandwidthBps {
		t.Errorf("large reads achieved only %.0f B/s", effective)
	}
}
