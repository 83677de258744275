module kali/benchmark

go 1.24

require kali v0.0.0

replace kali => ../
