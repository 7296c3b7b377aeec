; sieve of Eratosthenes below n, where word 0 holds n: word i (2 <= i < n)
; ends as 1 iff i is prime
        li   r7, 0
        lw   r2, 0(r7)
        li   r1, 2
        li   r6, 1
init:
        sw   r6, (r1)
        addi r1, r1, 1
        bne  r1, r2, init
        li   r1, 2          ; candidate p
outer:
        mul  r3, r1, r1     ; p*p
        bgeu r3, r2, done
        lw   r4, (r1)
        beq  r4, r7, next   ; not prime: skip
mark:
        sw   r7, (r3)
        add  r3, r3, r1
        bltu r3, r2, mark
next:
        addi r1, r1, 1
        j    outer
done:
        halt
