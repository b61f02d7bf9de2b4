package httpfix

import (
	"io"
	"net/http"
)

func leak(url string) (int, error) {
	resp, err := http.Get(url) // want `never closed`
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func deferInLoop(urls []string) error {
	for _, u := range urls {
		resp, err := http.Get(u) // want `only resolved by defer`
		if err != nil {
			return err
		}
		defer resp.Body.Close()
	}
	return nil
}

func closeUndrained(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close() // want `without being drained`
		return nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// A response from a bare RoundTrip is held to the same rules as one from
// a client's Do.
func roundTripLeak(rt http.RoundTripper, req *http.Request) (int, error) {
	resp, err := rt.RoundTrip(req) // want `never closed`
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}
