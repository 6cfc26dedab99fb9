module cxfs/bench

go 1.24

require cxfs v0.0.0

replace cxfs => ../
